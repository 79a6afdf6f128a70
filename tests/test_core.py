import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bayeshead import RngStream, inv_softplus
from bayeshead.core import log_softmax, sigmoid, softmax, softplus

finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_constant_vector(self):
        for c in (-3.7, 0.0, 12.5):
            assert np.allclose(softmax([c, c, c]), [1 / 3] * 3, atol=1e-15)

    def test_hand_value(self):
        # e^x / sum e^x at [ln 1, ln 3]
        assert np.allclose(softmax([math.log(1), math.log(3)]), [0.25, 0.75], atol=1e-15)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            softmax([])
        with pytest.raises(ValueError):
            softmax([1.0, float("nan")])
        with pytest.raises(ValueError):
            softmax([1.0, float("inf")])

    @given(st.lists(finite_floats, min_size=1, max_size=8), st.floats(-100.0, 100.0))
    def test_shift_invariance(self, logits, shift):
        base = softmax(logits)
        shifted = softmax(np.asarray(logits) + shift)
        assert np.all(np.abs(base - shifted) < 1e-12)

    @given(st.lists(finite_floats, min_size=1, max_size=8))
    def test_valid_probability_vector(self, logits):
        p = softmax(logits)
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) < 1e-12

    def test_log_softmax_consistent(self):
        logits = RngStream(4).normal(6)
        assert np.allclose(np.exp(log_softmax(logits)), softmax(logits), atol=1e-14)


class TestSoftplus:
    def test_at_zero(self):
        assert float(softplus(0.0)) == pytest.approx(math.log(2), abs=1e-15)

    def test_large_positive_asymptote(self):
        assert float(softplus(100.0)) == pytest.approx(100.0, rel=1e-12)
        assert float(softplus(1e6)) == 1e6

    def test_large_negative_asymptote(self):
        v = float(softplus(-100.0))
        assert 0.0 < v < 1e-40

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            softplus(float("nan"))

    @given(finite_floats)
    def test_difference_identity(self, x):
        assert abs(float(softplus(x)) - float(softplus(-x)) - x) < 1e-10

    @given(st.floats(min_value=1e-3, max_value=25.0))
    def test_inverse_roundtrip(self, y):
        assert float(softplus(inv_softplus(y))) == pytest.approx(y, rel=1e-12)

    def test_inv_softplus_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            inv_softplus(0.0)


def test_sigmoid_matches_definition_and_is_stable():
    x = np.linspace(-30, 30, 101)
    assert np.allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), atol=1e-15)
    assert float(sigmoid(1e6)) == 1.0
    assert float(sigmoid(-1e6)) == 0.0


def test_matmul_associativity():
    # matrices are plain float64 ndarrays; pin the numeric contract anyway
    stream = RngStream(17)
    for _ in range(5):
        a = stream.normal(25).reshape(5, 5)
        b = stream.normal(25).reshape(5, 5)
        c = stream.normal(25).reshape(5, 5)
        left = (a @ b) @ c
        right = a @ (b @ c)
        assert np.allclose(left, right, rtol=1e-9)

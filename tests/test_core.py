import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from bayeshead import RngStream, inv_softplus
from bayeshead.core import log_softmax, reduce_classes, sigmoid, softmax, softplus

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


def _softmax_before(x):
    """softmax by numpy's reductions over the last axis: the expression ``reduce_classes`` replaced."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax_before(x):
    m = np.maximum.reduce(x, axis=-1, keepdims=True)
    s = x - m
    s -= np.log(np.add.reduce(np.exp(s), axis=-1, keepdims=True))
    return s


@st.composite
def class_arrays(draw):
    """(array, special): float64 arrays of 1-12 classes over 1-4000 rows in 1-, 2- and 3-D shapes, on both
    sides of the column switch (32 * (classes - 2) rows, at most 160); 3-D ones may be the row/draw-transposed
    view the inference kernel hands out.  ``special`` arrays hold signed zeros, including all-zero rows, and may
    hold +-inf and NaN."""
    c = draw(st.one_of(st.integers(2, 7), st.integers(1, 12)))
    rows = draw(st.integers(160, 4000) if draw(st.booleans()) else st.integers(1, 159))
    ndim = draw(st.sampled_from([1, 2, 2, 3, 3]))
    if ndim == 1:
        shape = (c,)
    elif ndim == 2:
        shape = (rows, c)
    else:
        lead = draw(st.sampled_from([d for d in (1, 2, 3, 5, 8) if d <= rows]))
        shape = (lead, rows // lead, c)
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = gen.normal(size=shape) * draw(st.sampled_from([1.0, 30.0, 1e-3]))
    if draw(st.booleans()):
        x = np.round(x) + 0.0  # ties for the max; + 0.0 turns the -0.0 that rounding leaves into 0.0
    special = draw(st.booleans())
    if special:
        flat = x.reshape(-1, c)
        flat[gen.random(flat.shape) < 0.2] = 0.0
        flat[gen.random(flat.shape) < 0.2] = -0.0
        flat[gen.random(flat.shape[0]) < 0.2] = -0.0  # rows whose sum is a signed zero
        for value in draw(st.lists(st.sampled_from([np.inf, -np.inf, np.nan]), max_size=3)):
            flat[gen.random(flat.shape) < 0.05] = value
    if ndim == 3 and draw(st.booleans()):
        x = np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)  # a non-contiguous view
    return x, special


class TestReduceClasses:
    """The class-column reductions against numpy's reductions over the last axis."""

    @settings(max_examples=300, deadline=None)
    @given(class_arrays())
    @example((np.random.default_rng(1).normal(size=(63, 4)), False))
    @example((np.random.default_rng(1).normal(size=(64, 4)), False))
    @example((np.random.default_rng(1).normal(size=(64, 7)), False))
    @example((np.random.default_rng(1).normal(size=(160, 7)), False))
    @example((np.random.default_rng(1).normal(size=(50, 1, 2)), False))
    @example((np.full((64, 3), -0.0), True))
    @example((np.full((3, 2), -0.0), True))
    def test_equals_numpy(self, case):
        x, special = case
        c = x.shape[-1]
        event("columns" if 2 <= c <= 7 and x.size >= 32 * (c - 2) * c else "numpy")
        with np.errstate(invalid="ignore", over="ignore"):
            for ufunc in (np.maximum, np.add):
                got, want = reduce_classes(ufunc, x), ufunc.reduce(x, axis=-1, keepdims=True)
                assert got.shape == want.shape
                if special:  # the sign of a zero sum may differ
                    assert np.array_equal(got, want, equal_nan=True), ufunc
                else:
                    assert got.tobytes() == want.tobytes(), ufunc
                out = np.empty_like(want)
                assert np.array_equal(reduce_classes(ufunc, x, out=out), want, equal_nan=True)
                assert np.array_equal(out, want, equal_nan=True)
            want = _log_softmax_before(x)
            assert log_softmax(x).tobytes() == want.tobytes()
            assert log_softmax(x, out=np.empty_like(want)).tobytes() == want.tobytes()
        if np.isfinite(x).all():
            assert softmax(x).tobytes() == _softmax_before(x).tobytes()
        else:
            with pytest.raises(ValueError, match="finite"):
                softmax(x)

    @pytest.mark.parametrize("shape, path", [
        ((1, 2), "columns"), ((32, 2), "columns"), ((50, 1, 2), "columns"),  # 2 classes: row, batch, row's draws
        ((31, 3), "numpy"), ((32, 3), "columns"),
        ((50, 1, 4), "numpy"), ((32, 4), "numpy"), ((64, 4), "columns"),  # a 4-class row's draws stays on numpy
        ((95, 5), "numpy"), ((96, 5), "columns"), ((159, 7), "numpy"), ((160, 7), "columns"),
        ((4000, 8), "numpy"), ((4000, 1), "numpy"),
    ])
    def test_switches_to_columns_at_the_measured_break_even(self, shape, path):
        # columns from 32 * (classes - 2) rows on, for 2-7 classes
        calls = []

        class Recorded:
            def __call__(self, *args, **kwargs):
                calls.append("columns")
                return np.add(*args, **kwargs)

            def reduce(self, *args, **kwargs):
                calls.append("numpy")
                return np.add.reduce(*args, **kwargs)

        x = np.random.default_rng(2).normal(size=shape)
        assert reduce_classes(Recorded(), x).tobytes() == np.add.reduce(x, axis=-1, keepdims=True).tobytes()
        assert set(calls) == {path}


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

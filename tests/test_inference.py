import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayeshead import (
    FeatureDataset,
    NumericError,
    PredictiveResult,
    ReferralThresholds,
    RngStream,
    TrainConfig,
    VariantError,
    evaluate,
    inference,
    init_bayes_model,
    predict_mc,
    predictive_from_samples,
    referral_decision,
    rng,
)
from bayeshead.analytics import _BLOCK_ROWS
from bayeshead.cli import run
from bayeshead.core import inv_softplus, softmax
from bayeshead.data import save_csv
from bayeshead.inference import (
    block_summary,
    credible_interval,
    entropy_bits,
    point_weights,
    posterior_draws,
    predict_deterministic,
    stacked_probs,
)
from bayeshead.model_io import ModelArchive, load_model, save_model
from bayeshead.network import bayes_forward, dense_forward, mean_forward
from bayeshead.training import init_baseline_model

prob_rows = st.lists(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False).map(lambda x: [x, -x]),
    min_size=1,
    max_size=20,
).map(lambda rows: np.array([softmax(r) for r in rows]))


class TestPredictiveFromSamples:
    def test_hand_computed_mean_and_variance(self):
        result = predictive_from_samples(np.array([[0.2, 0.8], [0.4, 0.6]]))
        assert np.allclose(result.mean_probs, [0.3, 0.7], atol=1e-12)
        assert np.allclose(result.var_probs, [0.01, 0.01], atol=1e-12)
        assert result.predicted_class == 1
        assert result.uncertainty_scalar == pytest.approx(0.01, abs=1e-12)

    def test_single_draw_degeneracy(self):
        result = predictive_from_samples(np.array([[0.9, 0.1]]))
        assert np.array_equal(result.mean_probs, [0.9, 0.1])
        assert np.array_equal(result.var_probs, [0.0, 0.0])
        assert np.array_equal(result.ci_low, result.ci_high)

    def test_mean_is_exact_column_mean(self):
        probs = np.array([softmax(RngStream(1).derive(i).normal(3)) for i in range(40)])
        result = predictive_from_samples(probs)
        assert np.array_equal(result.mean_probs, probs.sum(axis=0) / 40)

    @given(prob_rows)
    def test_two_class_variance_symmetry(self, probs):
        result = predictive_from_samples(probs)
        assert abs(result.var_probs[0] - result.var_probs[1]) < 1e-12

    @given(prob_rows)
    def test_result_invariants(self, probs):
        result = predictive_from_samples(probs)
        assert abs(result.mean_probs.sum() - 1.0) < 1e-9
        assert np.all(result.var_probs >= 0.0)
        assert 0.0 <= result.entropy_bits <= 1.0 + 1e-12  # log2 of 2 classes
        assert np.all(result.ci_low <= result.ci_high)
        assert result.predicted_class == int(np.argmax(result.mean_probs))
        assert result.uncertainty_scalar == float(result.var_probs.max())

    @given(prob_rows)
    def test_entropy_of_mean_at_least_mean_entropy(self, probs):
        # Jensen: entropy is concave
        result = predictive_from_samples(probs)
        per_draw = np.mean([entropy_bits(row) for row in probs])
        assert result.entropy_bits >= per_draw - 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            predictive_from_samples(np.empty((0, 2)))
        with pytest.raises(ValueError):
            predictive_from_samples(np.array([[0.7, 0.7]]))


class TestEntropyBits:
    def test_degenerate_distribution(self):
        assert entropy_bits([1.0, 0.0]) == 0.0

    def test_binary_maximum(self):
        assert entropy_bits([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)

    def test_hand_binary_entropy(self):
        expected = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
        assert entropy_bits([0.9, 0.1]) == pytest.approx(expected, abs=1e-12)
        assert entropy_bits([0.9, 0.1]) == pytest.approx(0.468996, abs=1e-6)

    def test_bounded_by_log_classes(self):
        for c in (2, 3, 5):
            p = np.full(c, 1.0 / c)
            assert entropy_bits(p) <= math.log2(c) + 1e-12

    def test_rejects_nonprobability(self):
        with pytest.raises(ValueError):
            entropy_bits([0.5, 0.6])
        with pytest.raises(ValueError):
            entropy_bits([1.2, -0.2])
        with pytest.raises(ValueError):
            entropy_bits([])


class TestCredibleInterval:
    def test_constant_samples(self):
        assert credible_interval([2.5, 2.5, 2.5], 0.95) == (2.5, 2.5)

    def test_full_level_is_min_max(self):
        samples = [0.3, 0.9, 0.1, 0.5]
        assert credible_interval(samples, 1.0) == (0.1, 0.9)

    def test_uniform_grid_percentiles(self):
        samples = np.linspace(0.0, 1.0, 101)
        low, high = credible_interval(samples, 0.95)
        assert low == pytest.approx(0.025, abs=1e-12)
        assert high == pytest.approx(0.975, abs=1e-12)

    def test_rejects_empty_and_bad_level(self):
        with pytest.raises(ValueError):
            credible_interval([], 0.95)
        with pytest.raises(ValueError):
            credible_interval([1.0], 0.0)
        with pytest.raises(ValueError):
            credible_interval([1.0], 1.5)

    @given(
        st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=30),
        st.floats(min_value=0.5, max_value=1.0),
    )
    def test_bounds_and_median_containment(self, samples, level):
        low, high = credible_interval(samples, level)
        assert min(samples) <= low <= high <= max(samples)
        median = float(np.percentile(samples, 50.0))
        assert low - 1e-12 <= median <= high + 1e-12


def _result_with(uncertainty: float, top_prob: float) -> PredictiveResult:
    mean = np.array([top_prob, 1.0 - top_prob])
    return PredictiveResult(
        sample_probs=mean[None, :],
        mean_probs=mean,
        var_probs=np.full(2, uncertainty),
        entropy_bits=entropy_bits(mean),
        ci_low=mean,
        ci_high=mean,
        predicted_class=int(mean.argmax()),
        uncertainty_scalar=uncertainty,
    )


class TestReferralDecision:
    def test_low_uncertainty_accepted(self):
        decision = referral_decision(_result_with(0.00419, 1.0), 0.01, 0.99)
        assert decision.action == "accept"

    def test_high_uncertainty_referred(self):
        decision = referral_decision(_result_with(0.03669, 1.0), 0.01, 0.99)
        assert decision.action == "refer"
        assert decision.basis == "uncertainty_scalar"
        assert decision.threshold_used == 0.01

    def test_certain_prediction_always_accepted(self):
        decision = referral_decision(_result_with(0.0, 1.0), 0.0, 1.0)
        assert decision.action == "accept"

    def test_low_confidence_referred(self):
        decision = referral_decision(_result_with(0.0, 0.6), 0.01, 0.99)
        assert decision.action == "refer"
        assert decision.basis == "confidence"
        assert decision.threshold_used == 0.99

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            referral_decision(_result_with(0.0, 1.0), -0.1, 0.99)
        with pytest.raises(ValueError, match="uncertainty threshold"):
            referral_decision(_result_with(0.0, 1.0), math.nan, 0.99)  # would refer no row on uncertainty
        with pytest.raises(ValueError):
            referral_decision(_result_with(0.0, 1.0), 0.1, 0.0)


class TestReferralThresholds:
    @pytest.mark.parametrize("uncertainty", [-0.1, -1e-300, math.nan])
    def test_a_bad_uncertainty_threshold_raises_on_construction(self, uncertainty):
        with pytest.raises(ValueError, match=f"^uncertainty threshold must be >= 0, got {uncertainty}$"):
            ReferralThresholds(uncertainty, 0.99)

    @pytest.mark.parametrize("confidence", [0.0, -0.2, 1.0 + 1e-12, 1.5, math.nan])
    def test_a_bad_confidence_threshold_raises_on_construction(self, confidence):
        with pytest.raises(ValueError, match=r"^confidence threshold must lie in \(0, 1\]$"):
            ReferralThresholds(0.01, confidence)


class TestPredictMc:
    def test_single_draw(self, tiny_bayes):
        x = np.array([1.0, 0.5])
        result = predict_mc(tiny_bayes, x, 1, RngStream(12))
        assert result.sample_probs.shape == (1, 2)
        assert np.array_equal(result.mean_probs, result.sample_probs[0])
        assert np.array_equal(result.var_probs, [0.0, 0.0])

    def test_zero_sigma_collapses(self):
        model = init_bayes_model(2, 2, TrainConfig(hidden_dim=4, seed=1))
        model.output.params.rho = np.full(len(model.output.params), -1e6)
        result = predict_mc(model, np.array([0.4, -0.2]), 7, RngStream(3))
        assert np.all(result.sample_probs == result.sample_probs[0])
        assert np.array_equal(result.var_probs, [0.0, 0.0])

    def test_does_not_advance_stream_and_reproduces(self, tiny_bayes):
        stream = RngStream(9).derive(4)
        x = np.array([-0.5, 0.3])
        a = predict_mc(tiny_bayes, x, 20, stream)
        assert stream.counter == 0
        b = predict_mc(tiny_bayes, x, 20, stream)
        assert np.array_equal(a.sample_probs, b.sample_probs)

    def test_memoized_noise_gives_the_same_bits_and_follows_the_weights(self, tiny_bayes):
        x = np.array([-0.5, 0.3])
        stream = RngStream(9).derive(4)
        rng._child_block.cache_clear()
        miss = predict_mc(tiny_bayes, x, 20, stream)
        hit = predict_mc(tiny_bayes, x, 20, stream)
        assert rng._child_block.cache_info().hits == 1
        for field in ("sample_probs", "mean_probs", "var_probs", "ci_low", "ci_high"):
            assert getattr(miss, field).tobytes() == getattr(hit, field).tobytes()
        assert (miss.entropy_bits, miss.uncertainty_scalar) == (hit.entropy_bits, hit.uncertainty_scalar)
        # the memo holds noise only: weights updated in place change the next prediction
        model = init_bayes_model(2, 2, TrainConfig(hidden_dim=4, seed=1))
        before = predict_mc(model, x, 20, stream).sample_probs
        model.output.params.mu += 0.5
        after = predict_mc(model, x, 20, stream).sample_probs
        assert not np.array_equal(before, after)
        w, b = posterior_draws(model, 20, stream)
        assert after.tobytes() == stacked_probs(model, [x], w, b)[0].tobytes()

    def test_rejects_baseline_and_zero_draws(self, tiny_bayes, tiny_baseline):
        with pytest.raises(VariantError):
            predict_mc(tiny_baseline, np.zeros(2), 5, RngStream(0))
        with pytest.raises(ValueError):
            predict_mc(tiny_bayes, np.zeros(2), 0, RngStream(0))

    def test_deterministic_prediction_for_baseline(self, tiny_baseline):
        result = predict_deterministic(tiny_baseline, np.array([2.0, 0.0]))
        assert result.sample_probs.shape == (1, 2)
        assert np.array_equal(result.var_probs, [0.0, 0.0])
        assert result.uncertainty_scalar == 0.0


class TestWeightStackMemo:
    """posterior_draws keeps its read-only stacks keyed by stream, n, output shape and the bytes of mu and rho."""

    def test_a_miss_and_a_hit_give_the_same_bits(self, tiny_bayes):
        x, stream = np.array([0.7, -0.2]), RngStream(13).derive(4)
        inference._STACKS.clear()
        miss = predict_mc(tiny_bayes, x, 20, stream)
        stack = posterior_draws(tiny_bayes, 20, stream)
        hit = predict_mc(tiny_bayes, x, 20, stream)
        assert len(inference._STACKS) == 1 and posterior_draws(tiny_bayes, 20, stream)[0] is stack[0]
        for field in fields(PredictiveResult):
            assert np.asarray(getattr(miss, field.name)).tobytes() == np.asarray(getattr(hit, field.name)).tobytes()

    def test_two_loads_of_one_archive_share_an_entry(self, tiny_bayes, tmp_path):
        save_model(ModelArchive(tiny_bayes), tmp_path / "model.json")
        first, second = (load_model(tmp_path / "model.json").model for _ in range(2))
        inference._STACKS.clear()
        stream = RngStream(13).derive(4)
        assert posterior_draws(first, 20, stream)[0] is posterior_draws(second, 20, stream)[0]
        assert len(inference._STACKS) == 1

    @pytest.mark.parametrize("name", ["mu", "rho"])
    def test_an_in_place_update_misses(self, name):
        model = init_bayes_model(2, 3, TrainConfig(hidden_dim=4, seed=1))
        params, stream = model.output.params, RngStream(13).derive(4)
        inference._STACKS.clear()
        before = posterior_draws(model, 20, stream)
        getattr(params, name)[0] += 0.25
        w, b = posterior_draws(model, 20, stream)
        assert len(inference._STACKS) == 2 and w is not before[0]
        theta = params.mu + params.sigma * stream.child_normals(20, len(params))
        assert (w.tobytes(), b.tobytes()) == tuple(a.tobytes() for a in model.output.unflatten(theta))

    def test_equal_sizes_of_other_shapes_get_their_own_stacks(self):
        # K = H * C + C is 12 for H=5, C=2 and for H=3, C=3; mu and rho are made equal too
        wide = init_bayes_model(2, 2, TrainConfig(hidden_dim=5, seed=1))
        square = init_bayes_model(2, 3, TrainConfig(hidden_dim=3, seed=1))
        square.output.params.mu, square.output.params.rho = wide.output.params.mu, wide.output.params.rho
        stream = RngStream(13).derive(4)
        inference._STACKS.clear()
        shapes = [tuple(a.shape for a in posterior_draws(m, 20, stream)) for m in (wide, square)]
        assert shapes == [((20, 5, 2), (20, 2)), ((20, 3, 3), (20, 3))]
        assert len(inference._STACKS) == 2

    def test_the_stack_is_read_only(self, tiny_bayes):
        w, b = posterior_draws(tiny_bayes, 20, RngStream(13).derive(4))
        assert not (w.flags.writeable or b.flags.writeable)
        with pytest.raises(ValueError):
            w[0, 0, 0] = 0.0

    def test_twenty_models_leave_at_most_eight_entries(self):
        models = [init_bayes_model(2, 2, TrainConfig(hidden_dim=4, seed=s)) for s in range(20)]
        stream = RngStream(13).derive(4)
        inference._STACKS.clear()
        stacks = [posterior_draws(m, 20, stream) for m in models]
        assert len(inference._STACKS) == 8
        assert posterior_draws(models[12], 20, stream)[0] is stacks[12][0]  # a hit makes 12 the newest
        assert posterior_draws(models[0], 20, stream)[0] is not stacks[0][0]  # a miss evicts 13, not 12
        assert len(inference._STACKS) == 8
        assert posterior_draws(models[12], 20, stream)[0] is stacks[12][0]
        assert posterior_draws(models[13], 20, stream)[0] is not stacks[13][0]

    def test_an_overflowing_archive_exits_1_on_every_eval(self, tiny_task, tmp_path, capsys):
        # the second eval hits the memo and must still raise at the kernel
        model = init_bayes_model(2, 2, TrainConfig(hidden_dim=8, seed=3))
        model.output.params.rho = np.full(len(model.output.params), 1e308)
        save_model(ModelArchive(model), tmp_path / "model.json")
        save_csv(tiny_task[1], tmp_path / "val.csv")
        for out in ("a", "b"):
            assert run(["eval", "--model", str(tmp_path / "model.json"), "--data", str(tmp_path / "val.csv"),
                        "--n", "4", "--out", str(tmp_path / out)]) == 1
            assert "not finite" in capsys.readouterr().err
            assert not (tmp_path / out / "report.json").exists()


class TestPerDrawReference:
    """The batched kernel against the one-draw forward passes, bit for bit."""

    @pytest.fixture(params=["tiny", "wide"])
    def models(self, request, tiny_bayes, tiny_baseline):
        if request.param == "tiny":
            return tiny_bayes, tiny_baseline, np.array([0.7, -1.2])
        cfg = TrainConfig(hidden_dim=24, seed=8)
        x = RngStream(2).normal(32) * 3.0
        return init_bayes_model(32, 4, cfg), init_baseline_model(32, 4, cfg), x

    def test_mc_rows_equal_per_draw_forward(self, models):
        bayes, _, x = models
        stream = RngStream(5).derive(4)
        result = predict_mc(bayes, x, 12, stream)
        for i in range(12):
            logits, _ = bayes_forward(bayes, x, stream.derive(i))
            assert result.sample_probs[i].tobytes() == softmax(logits).tobytes()

    def test_deterministic_equals_mean_forward(self, models):
        bayes, baseline, x = models
        for model in (bayes, baseline):
            result = predict_deterministic(model, x)
            assert result.sample_probs[0].tobytes() == softmax(mean_forward(model, x)).tobytes()


def _chi2_quantile(df: int, z: float) -> float:
    """Wilson-Hilferty: the chi-square(df) quantile at the standard normal quantile z."""
    a = 2.0 / (9.0 * df)
    return df * (1.0 - a + z * math.sqrt(a)) ** 3


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_log_ratios_have_each_rows_gaussian_moments(seed):
    # a statistical oracle through the kernel: under a Gaussian posterior the logits are linear in the
    # weights, so each row's log p_c - log p_0 over the draws is Gaussian with moments set by that row alone
    gen = np.random.default_rng(seed)
    h_dim, n = int(gen.integers(4, 9)), 4000
    model = init_bayes_model(3, 3, TrainConfig(hidden_dim=h_dim, seed=seed))
    params = model.output.params
    params.mu = gen.normal(size=len(params)) * 0.5
    params.rho = inv_softplus(gen.uniform(0.05, 0.6, size=len(params)))
    x = gen.normal(size=(5, 3)) * 2.0
    probs = stacked_probs(model, x, *posterior_draws(model, n, RngStream(seed).derive(9)))
    assert probs.shape == (5, n, 3)
    h = dense_forward(model.hidden, x)
    (mu_w,), (mu_b,) = model.output.unflatten(params.mu[None])
    (var_w,), (var_b,) = model.output.unflatten(params.sigma[None] ** 2)
    low, high = _chi2_quantile(n - 1, -4.5), _chi2_quantile(n - 1, 4.5)
    ratios, variances = {}, {}
    for c in (1, 2):
        ratios[c] = np.log(probs[:, :, c]) - np.log(probs[:, :, 0])  # (rows, draws)
        mean = h @ (mu_w[:, c] - mu_w[:, 0]) + (mu_b[c] - mu_b[0])
        variances[c] = var = h**2 @ (var_w[:, c] + var_w[:, 0]) + var_b[c] + var_b[0]
        z = (ratios[c].mean(axis=1) - mean) / np.sqrt(var / n)
        assert np.all(np.abs(z) < 4.5), (c, z)
        scaled = (n - 1) * ratios[c].var(axis=1, ddof=1) / var
        assert np.all((low < scaled) & (scaled < high)), (c, scaled / (n - 1))
    # the two ratios share class 0's weights, so they covary by its part of the variance
    cov = h**2 @ var_w[:, 0] + var_b[0]
    centered = {c: r - r.mean(axis=1, keepdims=True) for c, r in ratios.items()}
    sample_cov = (centered[1] * centered[2]).sum(axis=1) / (n - 1)
    z = (sample_cov - cov) / np.sqrt((variances[1] * variances[2] + cov**2) / n)
    assert np.all(np.abs(z) < 4.5), z


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rows_are_input_errors(tiny_bayes, bad):
    x = np.array([0.5, bad])
    with pytest.raises(ValueError):
        predict_mc(tiny_bayes, x, 4, RngStream(1))
    with pytest.raises(ValueError):
        predict_deterministic(tiny_bayes, x)


def test_overflowing_weights_are_numeric_errors():
    model = init_bayes_model(2, 2, TrainConfig(hidden_dim=8, seed=3))
    model.output.params.rho = np.full(len(model.output.params), 1e308)
    with pytest.raises(NumericError):
        predict_mc(model, np.array([0.5, -0.5]), 4, RngStream(1))


@pytest.mark.filterwarnings("error")
def test_overflowing_weights_raise_without_runtime_warnings():
    model = init_bayes_model(2, 2, TrainConfig(hidden_dim=8, seed=3))
    model.output.params.rho = np.full(len(model.output.params), 1e308)
    with pytest.raises(NumericError):
        predict_mc(model, np.array([0.5, -0.5]), 4, RngStream(1))


def _reference_summary(probs: np.ndarray, level: float) -> dict:
    """One row's summary as computed before the block summary: reductions over
    an (n, C) draw matrix, one percentile call per class, entropy over the
    nonzero entries of the mean."""
    n = probs.shape[0]
    mean = probs.sum(axis=0) / n
    var = ((probs - mean) ** 2).sum(axis=0) / n
    tail = 100.0 * (1.0 - level) / 2.0
    bounds = [np.percentile(probs[:, c], [tail, 100.0 - tail]) for c in range(probs.shape[1])]
    p = np.clip(mean, 0.0, 1.0)
    nz = p > 0.0
    return {
        "mean_probs": mean,
        "var_probs": var,
        "ci_low": np.array([float(lo) for lo, _ in bounds]),
        "ci_high": np.array([float(hi) for _, hi in bounds]),
        "entropy_bits": np.float64(-np.sum(p * np.log2(np.where(nz, p, 1.0)))),
        "predicted_class": int(np.argmax(mean)),
        "uncertainty_scalar": np.float64(var.max()),
    }


def _assert_same_bits(result, ref: dict) -> None:
    for key in ("mean_probs", "var_probs", "ci_low", "ci_high"):
        assert np.asarray(getattr(result, key)).tobytes() == ref[key].tobytes(), key
    assert np.float64(result.entropy_bits).tobytes() == ref["entropy_bits"].tobytes()
    assert np.float64(result.uncertainty_scalar).tobytes() == ref["uncertainty_scalar"].tobytes()
    assert result.predicted_class == ref["predicted_class"]


def _block_row(s, i: int) -> PredictiveResult:
    """Row i of a ``block_summary``, laid out as ``predictive_from_samples`` returns one row."""
    return PredictiveResult(s.sample_probs[i], s.mean_probs[i], s.var_probs[i], s.entropy_bits[i], s.ci_low[i],
                            s.ci_high[i], s.predicted_class[i], s.uncertainty[i])


def _draw_block(rows: int, n: int, c: int, seed: int) -> np.ndarray:
    """Softmax draws (rows, n, c); every third row has a class that is exactly 0 in every draw."""
    logits = RngStream(seed).normal(rows * n * c).reshape(rows, n, c) * 3.0
    logits[::3, :, 1] = -1000.0  # exp underflows to 0.0, so the row's mean holds an exact 0.0
    return softmax(logits)


class TestBlockSummary:
    """The block summary against the per-row reference, bit for bit."""

    @pytest.mark.parametrize("rows", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    @pytest.mark.parametrize("c", [2, 4, 9])
    @pytest.mark.parametrize("n", [1, 50])
    def test_rows_equal_per_row_reference(self, rows, c, n):
        probs = _draw_block(rows, n, c, seed=100 * c + n)
        assert np.any(probs.sum(axis=1) == 0.0)  # the zero-mean rows are there
        s = block_summary(probs, 0.9)
        assert len(s.predicted_class) == rows
        for i in range(rows):
            result = _block_row(s, i)
            assert result.sample_probs.tobytes() == probs[i].tobytes()
            _assert_same_bits(result, _reference_summary(probs[i], 0.9))

    @pytest.mark.parametrize("rows", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    def test_kernel_view_and_contiguous_copy_give_the_same_summary(self, rows):
        model = init_bayes_model(5, 4, TrainConfig(hidden_dim=8, seed=2))
        x = RngStream(13).normal(rows * 5).reshape(rows, 5) * 2.0
        view = stacked_probs(model, x, *posterior_draws(model, 50, RngStream(4)))
        copy = np.ascontiguousarray(view)
        assert view.shape == copy.shape == (rows, 50, 4)
        assert rows == 1 or not view.flags.c_contiguous  # draw-major underneath
        a, b = block_summary(view), block_summary(copy)
        for key in ("mean_probs", "var_probs", "ci_low", "ci_high", "uncertainty"):
            assert getattr(a, key).tobytes() == getattr(b, key).tobytes(), key
        assert np.array(a.entropy_bits).tobytes() == np.array(b.entropy_bits).tobytes()
        assert a.predicted_class == b.predicted_class

    def test_single_row_call_is_the_block_case(self):
        probs = _draw_block(4, 50, 9, seed=3)
        s = block_summary(probs)
        for i in range(len(probs)):
            result = _block_row(s, i)
            single = predictive_from_samples(probs[i])
            _assert_same_bits(single, _reference_summary(probs[i], 0.95))
            _assert_same_bits(result, _reference_summary(probs[i], 0.95))

    @pytest.mark.parametrize("row", [0, 31, 64])
    def test_bad_draw_anywhere_raises_as_per_row(self, row):
        probs = _draw_block(65, 8, 4, seed=5)
        bad = probs.copy()
        bad[row, 3] = [0.7, 0.7, 0.0, 0.0]
        with pytest.raises(ValueError, match="^each draw must be a probability vector$"):
            block_summary(bad)
        with pytest.raises(ValueError, match="^each draw must be a probability vector$"):
            predictive_from_samples(bad[row])
        negative = probs.copy()
        negative[row, 5] = [1.1, -0.1, 0.0, 0.0]
        with pytest.raises(ValueError, match="^each draw must be a probability vector$"):
            block_summary(negative)

    def test_bad_shape_and_level(self):
        with pytest.raises(ValueError, match="n_rows, n_draws"):
            block_summary(np.full((2, 3), 0.5))
        with pytest.raises(ValueError, match="n_rows, n_draws"):
            block_summary(np.ones((2, 3, 1)))
        for level in (0.0, 1.5):
            with pytest.raises(ValueError, match=r"level must lie in \(0, 1\]"):
                block_summary(_draw_block(3, 4, 2, seed=1), level)

    @pytest.mark.parametrize("variant", ["bayesian", "baseline"])
    def test_evaluate_records_equal_per_row_reference(self, variant):
        cfg = TrainConfig(hidden_dim=8, seed=4)
        init = init_bayes_model if variant == "bayesian" else init_baseline_model
        model = init(5, 9, cfg)
        size = _BLOCK_ROWS + 1  # two kernel calls
        rows = RngStream(21).normal(size * 5).reshape(size, 5) * 2.0
        dataset = FeatureDataset(rows, np.arange(size) % 9, [f"r{j}" for j in range(size)], "block")
        stream = RngStream(6).derive(2)
        report = evaluate(model, dataset, 20, ReferralThresholds(), stream, ci_level=0.8)
        w, b = posterior_draws(model, 20, stream) if model.is_bayesian else point_weights(model)
        for j, record in enumerate(report.records):
            ref = _reference_summary(stacked_probs(model, rows[j : j + 1], w, b)[0], 0.8)
            assert np.array(record.mean_probs).tobytes() == ref["mean_probs"].tobytes()
            assert np.array(record.var_probs).tobytes() == ref["var_probs"].tobytes()
            assert np.array(record.ci_low).tobytes() == ref["ci_low"].tobytes()
            assert np.array(record.ci_high).tobytes() == ref["ci_high"].tobytes()
            assert np.float64(record.entropy_bits).tobytes() == ref["entropy_bits"].tobytes()
            assert np.float64(record.uncertainty).tobytes() == ref["uncertainty_scalar"].tobytes()
            assert record.predicted_class == ref["predicted_class"]


class TestEntropyRule:
    """One entropy rule: -sum p * log2 p over every class of the mean, a zero entry adding a zero term."""

    @pytest.mark.parametrize("c", [2, 4, 9])
    def test_block_summary_calls_no_per_row_function(self, c, monkeypatch):
        probs = _draw_block(65, 50, c, seed=30 + c)
        assert np.any(probs.sum(axis=1) == 0.0)  # rows whose mean holds an exact 0

        def per_row(*args, **kwargs):
            raise AssertionError("block_summary summarized a row on its own")

        for name in ("entropy_bits", "credible_interval", "predictive_from_samples"):
            monkeypatch.setattr(inference, name, per_row)
        assert len(block_summary(probs).entropy_bits) == 65

    def test_entropy_bits_has_the_bits_of_the_block_rule_s_row(self):
        # numpy sums 8 or more terms pairwise, so dropping the zero terms would move a last bit
        for c in range(2, 13):
            logits = RngStream(70 + c).normal(400 * c).reshape(400, c) * 3.0
            logits[RngStream(90 + c).normal(400 * c).reshape(400, c) > 0.3] = -1000.0  # exact zeros
            logits[:, 0], logits[:, c - 1] = 0.0, -1000.0  # a class that never underflows, one that always does
            mean = softmax(logits)
            assert (mean == 0.0).any(axis=1).all()
            rule = -(mean * np.log2(np.where(mean > 0.0, mean, 1.0))).sum(axis=1)
            assert np.array(block_summary(mean[:, None]).entropy_bits).tobytes() == rule.tobytes(), c
            assert np.array([entropy_bits(p) for p in mean]).tobytes() == rule.tobytes(), c


@st.composite
def draw_blocks(draw):
    """Softmax draw blocks (rows, n, C): a class may be exactly 0 in every draw of a row,
    and draws may be tied, by repeating a draw or by coarse logits."""
    rows, n, c = draw(st.integers(1, 65)), draw(st.integers(1, 200)), draw(st.integers(2, 9))
    logits = RngStream(draw(st.integers(0, 2**32))).normal(rows * n * c).reshape(rows, n, c) * 3.0
    if draw(st.booleans()):
        logits = np.round(logits)
    if draw(st.booleans()):
        logits[:, : draw(st.integers(1, n))] = logits[:, :1]
    zero_rows = draw(st.integers(0, rows))
    logits[:zero_rows, :, draw(st.integers(0, c - 1))] = -1000.0
    return softmax(logits)


class TestIntervalRule:
    """The sorted-rank interval bounds against ``np.percentile`` on the installed numpy, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(draw_blocks(), st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)))
    def test_bounds_equal_percentile(self, probs, level):
        tail = 100.0 * (1.0 - level) / 2.0
        low, high = np.percentile(probs, [tail, 100.0 - tail], axis=1)
        s = block_summary(probs, level)
        assert s.ci_low.tobytes() == low.tobytes()
        assert s.ci_high.tobytes() == high.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.5, 0.7])
    def test_bad_draw_raises_before_the_sort(self, monkeypatch, value):
        probs = _draw_block(3, 20, 4, seed=8)
        probs[2, 7, 1] = value

        def no_sort(*args, **kwargs):
            raise AssertionError("sorted draws that are not probability vectors")

        monkeypatch.setattr(np, "ascontiguousarray", no_sort)  # the copy that block_summary sorts in place
        with pytest.raises(ValueError, match="^each draw must be a probability vector$"):
            block_summary(probs)
        with pytest.raises(ValueError, match="^each draw must be a probability vector$"):
            predictive_from_samples(probs[2])


class TestNanRejected:
    def test_small_examples(self):
        with pytest.raises(ValueError, match="not a probability vector"):
            entropy_bits([np.nan, 1.0])
        with pytest.raises(ValueError, match="each draw must be a probability vector"):
            predictive_from_samples([[np.nan, np.nan]])

    @pytest.mark.parametrize("row", [0, 64])
    def test_entropy_bits(self, row):
        p = np.full(65, 1.0 / 65)
        p[row] = np.nan
        with pytest.raises(ValueError, match="not a probability vector"):
            entropy_bits(p)

    @pytest.mark.parametrize("row", [0, 64])
    def test_predictive_from_samples(self, row):
        probs = np.full((65, 3), 1.0 / 3)
        probs[row, 1] = np.nan
        with pytest.raises(ValueError, match="each draw must be a probability vector"):
            predictive_from_samples(probs)

    @pytest.mark.parametrize("row", [0, 64])
    def test_block_summary(self, row):
        probs = np.full((65, 4, 3), 1.0 / 3)
        probs[row, 2, 0] = np.nan
        with pytest.raises(ValueError, match="each draw must be a probability vector"):
            block_summary(probs)


def _overflowing_model():
    model = init_bayes_model(2, 2, TrainConfig(hidden_dim=8, seed=3))
    model.output.params.rho = np.full(len(model.output.params), 1e308)  # softplus scales the draws to inf
    return model


class TestOneCheckPerInput:
    """Each input of the prediction path is checked once, with the errors it always had."""

    @pytest.mark.parametrize("rows", [1, _BLOCK_ROWS + 1])
    def test_overflowing_weights_raise_numeric_error_on_any_block(self, rows):
        model = _overflowing_model()
        x = np.tile([0.5, -0.5], (rows, 1))
        with pytest.raises(NumericError, match="^prediction logits are not finite: the model weights overflow"):
            stacked_probs(model, x, *posterior_draws(model, 4, RngStream(1)))

    @pytest.mark.parametrize("overflowing", [False, True])
    def test_a_zero_row_block_is_an_input_error(self, tiny_bayes, overflowing):
        model = _overflowing_model() if overflowing else tiny_bayes
        with pytest.raises(ValueError, match="^softmax of empty input$"):  # not a NumericError
            stacked_probs(model, np.empty((0, 2)), *posterior_draws(model, 4, RngStream(1)))

    @pytest.mark.parametrize("n", [2, 50, 64])
    def test_draws_at_the_check_s_tolerances_get_entropies(self, n):
        # an entry at -1e-12 and the largest sum the draw check passes: averaging n such draws can
        # carry the mean just past the tolerances, and the mean is not checked again
        draw = np.array([-1e-12, 0.5, 0.5 + 1e-6])
        while abs(draw.sum() - 1.0) <= 1e-6:
            draw[2] = np.nextafter(draw[2], 1.0)
        draw[2] = np.nextafter(draw[2], 0.0)
        s = block_summary(np.tile(draw, (3, n, 1)))
        assert np.all(np.isfinite(s.entropy_bits)) and min(s.entropy_bits) >= 0.0

    @pytest.mark.parametrize("p", [[0.7, 0.7], [1.1, -0.1], [0.5, 0.4], [np.inf, 0.0], [-np.inf, 1.0]])
    def test_entropy_bits_checks_its_own_input(self, p):
        with pytest.raises(ValueError, match="^input is not a probability vector$"):
            entropy_bits(p)

    def test_an_empty_block_passes_the_draw_check(self):
        s = block_summary(np.empty((0, 5, 3)))
        assert s.mean_probs.shape == s.ci_low.shape == (0, 3) and s.entropy_bits == []

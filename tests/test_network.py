import dataclasses

import numpy as np
import pytest

from bayeshead import (
    NumericError,
    RngStream,
    TrainConfig,
    VariantError,
    backward,
    init_bayes_model,
    sample_from_epsilon,
)
from bayeshead.core import log_softmax, sigmoid, softmax
from bayeshead.distributions import mean_sample, sample_weights, spike_slab_score
from bayeshead.network import (
    DenseLayer,
    StepBuffers,
    batch_forward,
    batch_nll,
    bayes_forward,
    dense_forward,
    mean_forward,
)
from bayeshead.training import (
    _assign_params,
    _draw_samples,
    _elbo_parts,
    _param_dict,
    init_baseline_model,
)


class TestDenseForward:
    def test_identity_weights_give_relu_of_input(self):
        layer = DenseLayer(np.eye(3), np.zeros(3))
        assert np.array_equal(dense_forward(layer, [0.5, -1.0, 2.0]), [0.5, 0.0, 2.0])

    def test_zero_weights_yield_relu_of_bias(self):
        layer = DenseLayer(np.zeros((3, 2)), np.array([4.0, -1.0]))
        assert np.array_equal(dense_forward(layer, np.ones(3)), [4.0, 0.0])

    def test_hand_matrix_multiply(self):
        layer = DenseLayer(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.5, -0.5]))
        assert np.allclose(dense_forward(layer, [1.0, 1.0]), [4.5, 5.5], atol=1e-15)

    def test_relu_clips(self):
        layer = DenseLayer(np.eye(2), np.zeros(2))
        assert np.array_equal(dense_forward(layer, [-3.0, 2.0]), [0.0, 2.0])

    def test_shape_mismatch(self):
        layer = DenseLayer(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            dense_forward(layer, np.ones(4))

    def test_layer_validation(self):
        with pytest.raises(ValueError):
            DenseLayer(np.eye(2), np.zeros(3))


def _toy_bayes(seed=0, hidden=2, features=3, classes=2):
    return init_bayes_model(features, classes, TrainConfig(hidden_dim=hidden, seed=seed))


class TestBayesForward:
    def test_zero_sigma_reduces_to_mean_path(self):
        model = _toy_bayes()
        model.output.params.rho = np.full(len(model.output.params), -1e6)  # sigma == 0
        x = np.array([0.3, -0.8, 1.1])
        logits, sample = bayes_forward(model, x, RngStream(5))
        assert np.array_equal(logits, mean_forward(model, x))
        assert np.array_equal(sample.theta, model.output.params.mu)

    def test_deterministic_for_equal_stream_state(self):
        model = _toy_bayes()
        x = np.array([0.3, -0.8, 1.1])
        la, sa = bayes_forward(model, x, RngStream(5, 1))
        lb, sb = bayes_forward(model, x, RngStream(5, 1))
        assert np.array_equal(la, lb)
        assert np.array_equal(sa.theta, sb.theta)

    def test_distinct_streams_differ(self):
        model = _toy_bayes()
        x = np.array([0.3, -0.8, 1.1])
        la, _ = bayes_forward(model, x, RngStream(5, 1))
        lb, _ = bayes_forward(model, x, RngStream(5, 2))
        assert not np.array_equal(la, lb)

    def test_wrong_variant_rejected(self):
        baseline = init_baseline_model(3, 2, TrainConfig(hidden_dim=2))
        with pytest.raises(VariantError):
            bayes_forward(baseline, np.zeros(3), RngStream(0))

    def test_logits_softmax_to_valid_probabilities(self):
        model = _toy_bayes(seed=9)
        for draw in range(10):
            logits, _ = bayes_forward(model, RngStream(30).normal(3), RngStream(1).derive(draw))
            p = softmax(logits)
            assert np.all(p >= 0) and abs(p.sum() - 1.0) < 1e-12


def _redraw(model, sample):
    """``sample``'s draw at the model's current parameters: the same weight and logit noise."""
    return dataclasses.replace(sample_from_epsilon(model.output.params, sample.epsilon),
                               logit_noise=sample.logit_noise)


def _fd_gradcheck(model, features, labels, samples, kl_weight, h=1e-5):
    """Central finite differences against backward() with common random numbers."""
    grads = backward(model, features, labels, samples, kl_weight)
    base = {k: v.copy() for k, v in _param_dict(model).items()}

    def loss_at(params):
        _assign_params(model, params)
        s = _redraw(model, samples) if model.is_bayesian else None
        return _elbo_parts(model, features, labels, s, kl_weight)[0]

    worst = 0.0
    for name, arr in base.items():
        flat = arr.ravel()
        g = grads[name].ravel()
        for i in range(flat.size):
            up = {k: v.copy() for k, v in base.items()}
            up[name].ravel()[i] = flat[i] + h
            dn = {k: v.copy() for k, v in base.items()}
            dn[name].ravel()[i] = flat[i] - h
            fd = (loss_at(up) - loss_at(dn)) / (2 * h)
            rel = abs(fd - g[i]) / max(abs(fd), abs(g[i]), 1e-8)
            worst = max(worst, rel)
    _assign_params(model, base)
    return worst


class TestBackward:
    def test_gradients_match_finite_differences(self):
        model = _toy_bayes(seed=11)
        stream = RngStream(99)
        features = stream.normal(15).reshape(5, 3)
        labels = np.array([0, 1, 1, 0, 1])
        sample = sample_from_epsilon(model.output.params, stream.normal(len(model.output.params)))
        assert _fd_gradcheck(model, features, labels, sample, kl_weight=0.37) < 1e-4

    def test_per_example_gradients_match_finite_differences(self):
        model = _toy_bayes(seed=13)
        stream = RngStream(7)
        features = stream.normal(9).reshape(3, 3)
        labels = np.array([1, 0, 1])
        samples = _draw_samples(model, stream, 3, True, False)
        assert _fd_gradcheck(model, features, labels, samples, kl_weight=0.5) < 1e-4

    def test_baseline_gradients_match_finite_differences(self):
        model = init_baseline_model(3, 2, TrainConfig(hidden_dim=2, seed=4))
        stream = RngStream(55)
        features = stream.normal(12).reshape(4, 3)
        labels = np.array([0, 0, 1, 1])
        assert _fd_gradcheck(model, features, labels, None, kl_weight=0.0) < 1e-4

    def test_dead_input_column_gets_zero_gradient(self):
        # a feature that is zero on every row contributes no gradient
        model = _toy_bayes(seed=2)
        stream = RngStream(3)
        features = stream.normal(12).reshape(4, 3)
        features[:, 1] = 0.0
        labels = np.array([0, 1, 0, 1])
        sample = sample_from_epsilon(model.output.params, stream.normal(len(model.output.params)))
        grads = backward(model, features, labels, sample, kl_weight=0.0)
        assert np.array_equal(grads["hidden_w"][1, :], np.zeros(model.hidden_dim))

    def test_zero_sigma_matches_baseline_weight_gradients(self):
        config = TrainConfig(hidden_dim=2, seed=21)
        bayes = init_bayes_model(3, 2, config)
        base = init_baseline_model(3, 2, config)
        bayes.output.params.rho = np.full(len(bayes.output.params), -1e6)
        stream = RngStream(77)
        features = stream.normal(18).reshape(6, 3)
        labels = np.array([0, 1, 1, 0, 1, 0])
        sample = sample_from_epsilon(bayes.output.params, stream.normal(len(bayes.output.params)))
        gb = backward(bayes, features, labels, sample, kl_weight=0.0)
        gc = backward(base, features, labels, None, kl_weight=0.0)
        split = base.hidden_dim * base.n_classes
        assert np.array_equal(gb["mu"][:split].reshape(base.output.weights.shape), gc["out_w"])
        assert np.array_equal(gb["mu"][split:], gc["out_b"])
        assert np.array_equal(gb["hidden_w"], gc["hidden_w"])
        assert np.array_equal(gb["rho"], np.zeros_like(gb["rho"]))

    def test_per_example_matches_sum_of_single_row_backward(self):
        # reference loop: each row is a one-row batch with its own noise row; the NLL sums over the
        # rows, and the KL of the batch's one weight draw enters once, with the first row
        model = _toy_bayes(seed=17, hidden=5, features=4, classes=3)
        stream = RngStream(23)
        features = stream.normal(32).reshape(8, 4)
        labels = np.arange(8) % 3
        samples = _draw_samples(model, stream, 8, True, False)
        got = backward(model, features, labels, samples, kl_weight=0.3)
        want = {name: np.zeros_like(g) for name, g in got.items()}
        for i, e in enumerate(samples.logit_noise):
            s = dataclasses.replace(samples, logit_noise=e[None, :])
            row = backward(model, features[i : i + 1], labels[i : i + 1], s, kl_weight=0.3 if i == 0 else 0.0)
            for name in want:
                want[name] += row[name]
        for name, g in got.items():
            assert np.max(np.abs(g - want[name])) <= 1e-12 * np.max(np.abs(want[name])), name

    def test_per_example_gradients_match_finite_differences_wide(self):
        model = _toy_bayes(seed=29, hidden=5, features=4, classes=3)
        stream = RngStream(31)
        features = stream.normal(32).reshape(8, 4)
        labels = np.arange(8) % 3
        z1 = features @ model.hidden.weights + model.hidden.bias
        assert np.any(z1 > 0.0) and np.any(z1 < 0.0)  # the relu mask has units both on and off
        samples = _draw_samples(model, stream, 8, True, False)
        assert _fd_gradcheck(model, features, labels, samples, kl_weight=0.4) < 1e-4


class TestBatchNll:
    def test_clamps_degenerate_probability_with_warning(self):
        logits = np.array([[800.0, 0.0]])
        with pytest.warns(RuntimeWarning):
            nll = batch_nll(logits, np.array([1]))
        assert nll == pytest.approx(-float(np.log(1e-300)), rel=1e-12)

    def test_numeric_error_names_batch_index(self):
        logits = np.array([[0.0, 1.0], [np.nan, 0.0]])
        with pytest.raises(NumericError, match="batch index 1"):
            batch_nll(logits, np.array([0, 0]))

    def test_batch_forward_requires_sample_for_bayes(self):
        model = _toy_bayes()
        with pytest.raises(VariantError):
            batch_forward(model, np.zeros((2, 3)), None)


def _two_pass_backward(model, features, labels, samples, kl_weight):
    """The training step before it was fused: gradients from their own forward pass, with sigma
    and sigmoid(rho) recomputed from the parameters.  A per-example draw's logits are
    h @ mu_w + mu_b + s * e with s = sqrt((h*h) @ sigma_w² + sigma_b²)."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    noise = None if samples is None else samples.logit_noise

    def nll_grads(w, b, sigma=None):
        z1 = features @ model.hidden.weights + model.hidden.bias
        h = np.maximum(z1, 0.0)
        logits = h @ w + b
        if noise is not None:
            var_w, var_b = model.output.unflatten(sigma * sigma)
            s = np.sqrt((h * h) @ var_w + var_b)
            logits = logits + s * noise
        g = np.exp(log_softmax(logits)).copy()
        g[np.arange(labels.shape[0]), labels] -= 1.0
        g_w, g_b, dh = h.T @ g, g.sum(axis=0), g @ w.T
        g_sigma = None
        if noise is not None:
            u = g * noise / s
            g_sigma = np.concatenate([((h * h).T @ u).ravel(), u.sum(axis=0)]) * sigma
            dh = dh + h * (u @ var_w.T)
        dh = dh * (z1 > 0.0)
        return features.T @ dh, dh.sum(axis=0), g_w, g_b, g_sigma

    if not model.is_bayesian:
        g_w1, g_b1, g_w, g_b, _ = nll_grads(model.output.weights, model.output.bias)
        return {"hidden_w": g_w1, "hidden_b": g_b1, "out_w": g_w, "out_b": g_b}
    params = model.output.params
    theta = samples.theta if noise is None else params.mu
    g_w1, g_b1, g_w, g_b, g_sigma = nll_grads(*model.output.unflatten(theta), params.sigma)
    g_theta = np.concatenate([g_w.ravel(), g_b])
    g_mu = g_theta.copy()
    g_rho = (g_theta * samples.epsilon if noise is None else g_sigma) * sigmoid(params.rho)
    if kl_weight != 0.0:
        sigma, sig_prime = params.sigma, sigmoid(params.rho)
        score = spike_slab_score(samples.theta, model.output.prior)
        g_mu += kl_weight * -score
        g_rho += kl_weight * (-sig_prime / sigma - score * samples.epsilon * sig_prime)
    return {"hidden_w": g_w1, "hidden_b": g_b1, "mu": g_mu, "rho": g_rho}


def _fused_case(case):
    """(model, features, labels, samples, kl_weight) for one head and sampling mode."""
    model = _toy_bayes(seed=37, hidden=5, features=6, classes=3)
    stream = RngStream(41, counter=3)
    features = stream.normal(54).reshape(9, 6)
    labels = np.arange(9) % 3
    params = model.output.params
    if case == "baseline":
        return init_baseline_model(6, 3, TrainConfig(hidden_dim=5, seed=37)), features, labels, None, 0.0
    if case == "per_example":
        return model, features, labels, _draw_samples(model, stream, 9, True, False), 0.4
    if case == "force_sigma_zero":
        return model, features, labels, _draw_samples(model, stream, 9, False, True), 0.0
    kl_weight = 0.0 if case == "kl_weight_zero" else 0.37
    return model, features, labels, sample_weights(params, stream), kl_weight


_FUSED_CASES = ["shared", "per_example", "baseline", "force_sigma_zero", "kl_weight_zero"]


class TestFusedStep:
    @pytest.mark.parametrize("case", _FUSED_CASES)
    def test_loss_parts_equal_the_reference_loss(self, case):
        model, features, labels, samples, kl_weight = _fused_case(case)
        got = backward(model, features, labels, samples, kl_weight)
        _, nll, kl = _elbo_parts(model, features, labels, samples, kl_weight)
        assert (got.nll, got.kl) == (nll, kl)
        assert np.float64(got.nll).tobytes() == np.float64(nll).tobytes()
        assert np.float64(got.kl).tobytes() == np.float64(kl).tobytes()
        if case in ("baseline", "force_sigma_zero", "kl_weight_zero"):
            assert got.kl == 0.0

    @pytest.mark.parametrize("case", _FUSED_CASES)
    def test_gradients_equal_the_two_pass_step(self, case):
        model, features, labels, samples, kl_weight = _fused_case(case)
        got = backward(model, features, labels, samples, kl_weight)
        want = _two_pass_backward(model, features, labels, samples, kl_weight)
        assert list(got) == list(want)
        for name, g in want.items():
            assert got[name].shape == g.shape and got[name].tobytes() == g.tobytes(), name

    @pytest.mark.parametrize("case", _FUSED_CASES)
    def test_calls_without_buffers_return_gradients_of_their_own(self, case):
        model, features, labels, samples, kl_weight = _fused_case(case)
        first = backward(model, features, labels, samples, kl_weight)
        kept = {name: g.copy() for name, g in first.items()}
        second = backward(model, features, (labels + 1) % 3, samples, kl_weight)
        assert not any(np.shares_memory(a, b) for a in first.values() for b in second.values())
        assert all(first[name].tobytes() == g.tobytes() for name, g in kept.items())
        assert any(first[name].tobytes() != second[name].tobytes() for name in first)

    @pytest.mark.parametrize("case", _FUSED_CASES)
    @pytest.mark.parametrize("rows", [9, 5, 1])  # a full batch, a tail and a single row in buffers for 9
    def test_buffered_calls_have_the_bits_of_unbuffered_ones(self, case, rows):
        model, features, labels, samples, kl_weight = _fused_case(case)
        if samples is not None and samples.logit_noise is not None:
            samples = dataclasses.replace(samples, logit_noise=samples.logit_noise[:rows])
        buffers = StepBuffers(model, 9)
        want = backward(model, features[:rows], labels[:rows], samples, kl_weight)
        got = backward(model, features[:rows], labels[:rows], samples, kl_weight, buffers)
        assert (got.nll, got.kl) == (want.nll, want.kl)
        for name, g in want.items():
            assert got[name].shape == g.shape and got[name].tobytes() == g.tobytes(), name

    def test_buffered_gradients_are_views_that_the_next_call_overwrites(self):
        model, features, labels, samples, kl_weight = _fused_case("shared")
        buffers = StepBuffers(model, 9)
        first = backward(model, features, labels, samples, kl_weight, buffers)
        want = backward(model, features, (labels + 1) % 3, samples, kl_weight)
        second = backward(model, features, (labels + 1) % 3, samples, kl_weight, buffers)
        for name, g in want.items():
            assert np.shares_memory(first[name], second[name])
            assert first[name].tobytes() == second[name].tobytes() == g.tobytes(), name

    def test_non_finite_loss_names_batch_index(self):
        model, features, labels, samples, _ = _fused_case("shared")
        features[4] = [1.7e308, -1.7e308, 1.7e308, -1.7e308, 1.7e308, -1.7e308]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="batch index 4"):
                backward(model, features, labels, samples, 0.37)


@pytest.mark.parametrize("shape", [(5,), (7, 5), (7, 1, 5)])
def test_dense_forward_matches_the_out_of_place_reference_and_keeps_its_inputs(shape):
    stream = RngStream(4, 2)
    weights = stream.normal(15).reshape(5, 3)
    bias = stream.normal(3)
    x = stream.normal(int(np.prod(shape))).reshape(shape)
    layer = DenseLayer(weights, bias)
    copies = x.copy(), layer.weights.copy(), layer.bias.copy()
    got = dense_forward(layer, x)
    want = np.maximum(x @ weights + bias, 0)
    assert np.any(want == 0.0) and np.any(want > 0.0)
    assert got.shape == want.shape == shape[:-1] + (3,)
    assert got.tobytes() == want.tobytes()
    for before, after in zip(copies, (x, layer.weights, layer.bias)):
        assert before.tobytes() == after.tobytes()


class TestLinearOutput:
    def test_backward_without_a_sample_is_a_variant_error(self):
        model = _toy_bayes()
        with pytest.raises(VariantError):
            backward(model, np.zeros((2, 3)), np.array([0, 1]), None, 0.0)

    @pytest.mark.parametrize("variant", ["bayesian", "baseline"])
    def test_entry_points_share_the_logits_of_backward(self, variant):
        config = TrainConfig(hidden_dim=4, seed=12)
        model = (init_bayes_model if variant == "bayesian" else init_baseline_model)(3, 3, config)
        features = RngStream(13).normal(15).reshape(5, 3)
        labels = np.arange(5) % 3
        sample = mean_sample(model.output.params) if model.is_bayesian else None
        logits = mean_forward(model, features)
        assert logits.tobytes() == batch_forward(model, features, sample).tobytes()
        assert backward(model, features, labels, sample, 0.0).nll == batch_nll(logits, labels)


class TestMeanForwardBlocks:
    @pytest.mark.parametrize("rows, blocks", [
        (1024, [1024]), (1025, [1025]), (1026, [1024, 2]), (2049, [1024, 1025]), (3000, [1024, 1024, 952]),
    ])
    @pytest.mark.parametrize("variant", ["bayesian", "baseline"])
    def test_rows_go_in_blocks_with_a_one_row_tail_joined(self, rows, blocks, variant):
        # a single row would go through gemv, which gives other bits than gemm at these widths
        config = TrainConfig(hidden_dim=32, seed=4)
        model = (init_bayes_model if variant == "bayesian" else init_baseline_model)(32, 2, config)
        features = RngStream(8).normal(rows * 32).reshape(rows, 32)
        sample = mean_sample(model.output.params) if model.is_bayesian else None
        bounds = np.cumsum([0, *blocks])
        expected = np.concatenate([batch_forward(model, features[lo:hi], sample)
                                   for lo, hi in zip(bounds, bounds[1:])])
        assert mean_forward(model, features).tobytes() == expected.tobytes()


def _spread_model(seed):
    """A small bayesian head with scattered posterior scales, so a wrong power of sigma shows."""
    model = _toy_bayes(seed=seed, hidden=4, features=3, classes=3)
    stream = RngStream(seed, 1)
    params = model.output.params
    params.mu = stream.normal(len(params))
    params.rho = stream.normal(len(params)) * 0.5 - 1.0  # sigma from about 0.1 to 0.7
    return model


class TestLogitSpaceDraw:
    # fixed seeds, so the bounds hold or fail the same way on every run
    def test_logits_have_the_closed_form_mean_variance_and_no_cross_class_covariance(self):
        model = _spread_model(43)
        params, n = model.output.params, 4000
        features = RngStream(44).normal(15).reshape(5, 3)
        stream = RngStream(45)
        draws = np.stack([batch_forward(model, features, _draw_samples(model, stream, 5, True, False))
                          for _ in range(n)])  # (n, B, C)
        h = dense_forward(model.hidden, features)
        live = h.sum(axis=1) > 0.0
        assert live.any() and not live.all()  # rows with the weights' variance and a row with the biases' only
        mu_w, mu_b = model.output.unflatten(params.mu)
        sig_w, sig_b = model.output.unflatten(params.sigma)
        mean, var = h @ mu_w + mu_b, (h * h) @ (sig_w * sig_w) + sig_b * sig_b
        z = (draws.mean(axis=0) - mean) / np.sqrt(var / n)
        assert np.max(np.abs(z)) < 4.5, z
        # (n - 1) s² / var is chi-square with n - 1 degrees of freedom, about N(n - 1, 2(n - 1)) at this n
        chi2 = (n - 1) * draws.var(axis=0, ddof=1) / var
        assert np.max(np.abs(chi2 - (n - 1)) / np.sqrt(2 * (n - 1))) < 4.5, chi2
        centred = (draws - draws.mean(axis=0)) / draws.std(axis=0)
        corr = np.einsum("nbc,nbd->bcd", centred, centred) / n
        off = corr[:, ~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off)) * np.sqrt(n) < 4.5, off  # a sample correlation of 0 has sd 1/sqrt(n)

    def test_mean_nll_gradient_matches_per_row_weight_draws(self):
        # both steps estimate the gradient of the same expected NLL; the reference draws a weight
        # vector per row and runs the step on the (B, H, C) stack
        model = _spread_model(47)
        params = model.output.params
        features = RngStream(48).normal(18).reshape(6, 3)
        labels = np.arange(6) % 3
        n, k, rows = 3000, len(params), np.arange(6)
        stream = RngStream(49)
        got = [backward(model, features, labels, _draw_samples(model, stream, 6, True, False), 0.0)
               for _ in range(n)]
        got = {name: np.stack([g[name] for g in got]) for name in got[0]}

        eps = RngStream(50).normal(n * 6 * k).reshape(n, 6, k)
        theta = params.mu + params.sigma * eps
        w, b = model.output.unflatten(theta)  # (n, B, H, C), (n, B, C)
        z1 = features @ model.hidden.weights + model.hidden.bias
        h = np.maximum(z1, 0.0)
        g = np.exp(log_softmax(np.einsum("bh,nbhc->nbc", h, w) + b))
        g[:, rows, labels] -= 1.0
        g_theta = np.concatenate([np.einsum("bh,nbc->nbhc", h, g).reshape(n, 6, -1), g], axis=-1)
        dh = np.einsum("nbhc,nbc->nbh", w, g) * (z1 > 0.0)
        want = {
            "hidden_w": np.einsum("bd,nbh->ndh", features, dh),
            "hidden_b": dh.sum(axis=1),
            "mu": g_theta.sum(axis=1),
            "rho": (g_theta * eps).sum(axis=1) * sigmoid(params.rho),
        }
        assert list(got) == list(want)
        for name, a in got.items():
            c = want[name]
            se = np.sqrt(a.var(axis=0, ddof=1) / n + c.var(axis=0, ddof=1) / n)
            diff = np.abs(a.mean(axis=0) - c.mean(axis=0))
            assert np.all(diff <= 5.0 * se + 1e-12), (name, np.max(diff / (se + 1e-300)))

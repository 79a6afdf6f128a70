import numpy as np
import pytest

from bayeshead import (
    DenseLayer,
    NumericError,
    RngStream,
    TrainConfig,
    VariantError,
    backward,
    batch_forward,
    batch_nll,
    bayes_forward,
    dense_forward,
    init_baseline_model,
    init_bayes_model,
    mean_forward,
    sample_from_epsilon,
    softmax,
)
from bayeshead.core import log_softmax, sigmoid
from bayeshead.distributions import sample_weights, spike_slab_score, stack_samples
from bayeshead.training import _assign_params, _draw_samples, _elbo_parts, _param_dict


class TestDenseForward:
    def test_identity_map(self):
        layer = DenseLayer(np.eye(3), np.zeros(3), "identity")
        x = np.array([0.5, -1.0, 2.0])
        assert np.array_equal(dense_forward(layer, x), x)

    def test_zero_weights_yield_bias(self):
        layer = DenseLayer(np.zeros((3, 2)), np.array([4.0, -1.0]), "identity")
        assert np.array_equal(dense_forward(layer, np.ones(3)), [4.0, -1.0])

    def test_hand_matrix_multiply(self):
        layer = DenseLayer(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.5, -0.5]), "identity")
        assert np.allclose(dense_forward(layer, [1.0, 1.0]), [4.5, 5.5], atol=1e-15)

    def test_relu_clips(self):
        layer = DenseLayer(np.eye(2), np.zeros(2), "relu")
        assert np.array_equal(dense_forward(layer, [-3.0, 2.0]), [0.0, 2.0])

    def test_shape_mismatch(self):
        layer = DenseLayer(np.eye(3), np.zeros(3), "identity")
        with pytest.raises(ValueError):
            dense_forward(layer, np.ones(4))

    def test_layer_validation(self):
        with pytest.raises(ValueError):
            DenseLayer(np.eye(2), np.zeros(3), "identity")
        with pytest.raises(ValueError):
            DenseLayer(np.eye(2), np.zeros(2), "tanh")


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


def _fd_gradcheck(model, features, labels, samples, kl_weight, h=1e-5):
    """Central finite differences against backward() with common random numbers."""
    grads = backward(model, features, labels, samples, kl_weight)
    base = {k: v.copy() for k, v in _param_dict(model).items()}
    if samples is None:
        eps = None
    elif isinstance(samples, list):
        eps = [s.epsilon for s in samples]
    else:
        eps = samples.epsilon

    def loss_at(params):
        _assign_params(model, params)
        if model.is_bayesian:
            p = model.output.params
            if isinstance(eps, list):
                s = [sample_from_epsilon(p, e) for e in eps]
            else:
                s = sample_from_epsilon(p, eps)
        else:
            s = None
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
        k = len(model.output.params)
        samples = [
            sample_from_epsilon(model.output.params, stream.normal(k)) for _ in range(3)
        ]
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
        # reference loop: each row is a one-row shared-sample batch; the KL weight is split over the rows
        model = _toy_bayes(seed=17, hidden=5, features=4, classes=3)
        stream = RngStream(23)
        features = stream.normal(32).reshape(8, 4)
        labels = np.arange(8) % 3
        k = len(model.output.params)
        samples = [sample_from_epsilon(model.output.params, stream.normal(k)) for _ in range(8)]
        got = backward(model, features, labels, samples, kl_weight=0.3)
        want = {name: np.zeros_like(g) for name, g in got.items()}
        for i, s in enumerate(samples):
            row = backward(model, features[i : i + 1], labels[i : i + 1], s, kl_weight=0.3 / 8)
            for name in want:
                want[name] += row[name]
        for name, g in got.items():
            assert np.max(np.abs(g - want[name])) <= 1e-12 * np.max(np.abs(want[name])), name

    @pytest.mark.parametrize("activation", ["relu", "identity"])
    def test_per_example_gradients_match_finite_differences_wide(self, activation):
        model = _toy_bayes(seed=29, hidden=5, features=4, classes=3)
        model.hidden.activation = activation
        stream = RngStream(31)
        features = stream.normal(32).reshape(8, 4)
        labels = np.arange(8) % 3
        z1 = features @ model.hidden.weights + model.hidden.bias
        assert np.any(z1 > 0.0) and np.any(z1 < 0.0)  # the relu mask has units both on and off
        k = len(model.output.params)
        samples = [sample_from_epsilon(model.output.params, stream.normal(k)) for _ in range(8)]
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
    and sigmoid(rho) recomputed from the parameters."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)

    def nll_grads(w, b):
        z1 = features @ model.hidden.weights + model.hidden.bias
        h = np.maximum(z1, 0.0) if model.hidden.activation == "relu" else z1
        logits = h @ w + b if w.ndim == 2 else np.einsum("bh,bhc->bc", h, w) + b
        g = np.exp(log_softmax(logits)).copy()
        g[np.arange(labels.shape[0]), labels] -= 1.0
        if w.ndim == 2:
            g_w, g_b, dh = h.T @ g, g.sum(axis=0), g @ w.T
        else:
            g_w, g_b, dh = h[:, :, None] * g[:, None, :], g, np.einsum("bhc,bc->bh", w, g)
        if model.hidden.activation == "relu":
            dh = dh * (z1 > 0.0)
        return features.T @ dh, dh.sum(axis=0), g_w, g_b

    if not model.is_bayesian:
        g_w1, g_b1, g_w, g_b = nll_grads(model.output.weights, model.output.bias)
        return {"hidden_w": g_w1, "hidden_b": g_b1, "out_w": g_w, "out_b": g_b}
    samples = stack_samples(samples)
    per_example = samples.theta.ndim == 2
    params = model.output.params
    g_w1, g_b1, g_w, g_b = nll_grads(*model.output.unflatten(samples.theta))
    g_theta = np.concatenate([g_w.reshape(g_b.shape[:-1] + (-1,)), g_b], axis=-1)
    g_mu = g_theta.copy()
    g_rho = g_theta * samples.epsilon * sigmoid(params.rho)
    if kl_weight != 0.0:
        kl_scale = kl_weight / features.shape[0] if per_example else kl_weight
        sigma, sig_prime = params.sigma, sigmoid(params.rho)
        score = spike_slab_score(samples.theta, model.output.prior)
        g_mu += kl_scale * -score
        g_rho += kl_scale * (-sig_prime / sigma - score * samples.epsilon * sig_prime)
    if per_example:
        g_mu, g_rho = g_mu.sum(axis=0), g_rho.sum(axis=0)
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
    if case == "per_example_list":
        return model, features, labels, [sample_weights(params, stream) for _ in range(9)], 0.4
    if case == "force_sigma_zero":
        return model, features, labels, _draw_samples(model, stream, 9, False, True), 0.0
    kl_weight = 0.0 if case == "kl_weight_zero" else 0.37
    return model, features, labels, sample_weights(params, stream), kl_weight


_FUSED_CASES = ["shared", "per_example", "per_example_list", "baseline", "force_sigma_zero", "kl_weight_zero"]


class TestFusedStep:
    @pytest.mark.parametrize("case", _FUSED_CASES)
    def test_loss_parts_equal_the_reference_loss(self, case):
        model, features, labels, samples, kl_weight = _fused_case(case)
        got = backward(model, features, labels, samples, kl_weight)
        _, nll, kl, _ = _elbo_parts(model, features, labels, samples, kl_weight)
        assert (got.nll, got.kl) == (nll, kl)
        assert np.float64(got.nll).tobytes() == np.float64(nll).tobytes()
        assert np.float64(got.kl).tobytes() == np.float64(kl).tobytes()
        if case in ("baseline", "force_sigma_zero", "kl_weight_zero"):
            assert got.kl == 0.0

    @pytest.mark.parametrize("activation", ["relu", "identity"])
    @pytest.mark.parametrize("case", _FUSED_CASES)
    def test_gradients_equal_the_two_pass_step(self, case, activation):
        model, features, labels, samples, kl_weight = _fused_case(case)
        model.hidden.activation = activation
        got = backward(model, features, labels, samples, kl_weight)
        want = _two_pass_backward(model, features, labels, samples, kl_weight)
        assert list(got) == list(want)
        for name, g in want.items():
            assert got[name].shape == g.shape and got[name].tobytes() == g.tobytes(), name

    def test_non_finite_loss_names_batch_index(self):
        model, features, labels, samples, _ = _fused_case("shared")
        features[4] = [1.7e308, -1.7e308, 1.7e308, -1.7e308, 1.7e308, -1.7e308]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="batch index 4"):
                backward(model, features, labels, samples, 0.37)

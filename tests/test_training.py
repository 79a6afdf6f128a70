import hashlib
import math

import numpy as np
import pytest

from bayeshead import (
    FeatureDataset,
    NumericError,
    RmspropState,
    RngStream,
    SpikeSlabPrior,
    TrainConfig,
    elbo_loss,
    init_baseline_model,
    init_bayes_model,
    inv_softplus,
    kl_weight_for,
    rmsprop_step,
    sample_weights,
    synth_blobs,
    train_baseline,
    train_bayes,
    validate_metrics,
    write_history_csv,
)

from bayeshead.training import _EPS_STREAM, _SHUFFLE_STREAM, _draw_samples, _elbo_parts, _param_dict
from conftest import BLOB_MEANS


class TestRmsprop:
    def test_zero_gradient_leaves_params_and_decays_accum(self):
        params = {"w": np.array([1.0, -2.0])}
        state = RmspropState({"w": np.array([0.4, 0.4])})
        new_params, new_state = rmsprop_step(params, {"w": np.zeros(2)}, state, lr=0.01)
        assert np.array_equal(new_params["w"], params["w"])
        assert np.allclose(new_state.accum["w"], 0.36, atol=1e-15)

    def test_hand_update(self):
        params = {"w": np.array([1.0])}
        state = RmspropState.zeros_like(params)
        new_params, new_state = rmsprop_step(params, {"w": np.array([1.0])}, state, lr=0.01)
        assert float(new_state.accum["w"][0]) == pytest.approx(0.1, abs=1e-15)
        expected_step = 0.01 / (math.sqrt(0.1) + 1e-7)
        assert float(params["w"][0] - new_params["w"][0]) == pytest.approx(expected_step, abs=1e-12)

    def test_gradient_scale_invariance_from_fresh_state(self):
        # first step magnitude is ~lr/sqrt(1-decay) regardless of |g|
        target = 0.01 / math.sqrt(0.1)
        for c in (0.1, 1.0, 10.0):
            params = {"w": np.array([0.0])}
            state = RmspropState.zeros_like(params)
            new_params, _ = rmsprop_step(params, {"w": np.array([c])}, state, lr=0.01)
            assert abs(abs(float(new_params["w"][0])) - target) < 1e-6

    def test_nonfinite_gradient_names_group(self):
        params = {"hidden_w": np.zeros(2)}
        state = RmspropState.zeros_like(params)
        with pytest.raises(NumericError, match="hidden_w"):
            rmsprop_step(params, {"hidden_w": np.array([1.0, np.inf])}, state, lr=0.01)


class TestElboLoss:
    def test_zero_kl_weight_gives_pure_nll(self):
        model = init_bayes_model(2, 2, TrainConfig(hidden_dim=4, seed=0))
        feats = RngStream(1).normal(10).reshape(5, 2)
        labels = np.array([0, 1, 0, 1, 1])
        loss, nll, kl = elbo_loss(model, feats, labels, RngStream(2), kl_weight=0.0)
        assert loss == nll

    def test_uniform_logits_give_b_ln2(self):
        model = init_bayes_model(2, 2, TrainConfig(hidden_dim=4, seed=0))
        # zero the whole head so logits are identically zero
        model.hidden.weights = np.zeros_like(model.hidden.weights)
        model.hidden.bias = np.zeros_like(model.hidden.bias)
        model.output.params.mu = np.zeros(len(model.output.params))
        model.output.params.rho = np.full(len(model.output.params), -1e6)
        feats = RngStream(1).normal(14).reshape(7, 2)
        labels = np.array([0, 1, 1, 0, 1, 0, 0])
        _, nll, _ = elbo_loss(model, feats, labels, RngStream(2), kl_weight=0.0)
        assert nll == pytest.approx(7 * math.log(2), abs=1e-12)

    def test_kl_vanishes_when_prior_equals_posterior(self):
        sigma = 0.7
        prior = SpikeSlabPrior(mix_weight=0.5, slab_sigma=sigma, spike_sigma=sigma)
        config = TrainConfig(hidden_dim=3, seed=0, prior=prior)
        model = init_bayes_model(2, 2, config)
        model.output.params.mu = np.zeros(len(model.output.params))
        model.output.params.rho = np.full(len(model.output.params), float(inv_softplus(sigma)))
        feats = RngStream(1).normal(8).reshape(4, 2)
        labels = np.array([0, 1, 0, 1])
        kls = [
            elbo_loss(model, feats, labels, RngStream(3).derive(t), kl_weight=1.0)[2]
            for t in range(200)
        ]
        assert abs(float(np.mean(kls))) < 0.05

    def test_rejects_empty_batch(self):
        model = init_bayes_model(2, 2, TrainConfig(hidden_dim=3))
        with pytest.raises(ValueError):
            elbo_loss(model, np.empty((0, 2)), np.empty(0, dtype=int), RngStream(0), 1.0)


class TestKlWeight:
    def test_per_batch_sums_to_one_kl_per_epoch(self):
        config = TrainConfig(batch_size=32)
        n = 400
        num_batches = math.ceil(n / config.batch_size)
        assert abs(num_batches * kl_weight_for(config, n) - 1.0) < 1e-12

    def test_per_dataset_mode(self):
        config = TrainConfig(batch_size=32, kl_weight_mode="per_dataset")
        assert kl_weight_for(config, 400) == 1.0 / 400


def _task(seed=0, n_train=30, n_val=15):
    train = synth_blobs(n_train, BLOB_MEANS, 1.0, seed=100 + seed, name="train")
    val = synth_blobs(n_val, BLOB_MEANS, 1.0, seed=200 + seed, name="val")
    return train, val


class TestTrainLoop:
    def test_zero_epochs_returns_initialized_model(self):
        train, val = _task()
        config = TrainConfig(epochs=0, hidden_dim=4, seed=9)
        model, history = train_bayes(train, val, config)
        fresh = init_bayes_model(train.feature_dim, 2, config)
        assert len(history.epochs) == 0 and history.best_epoch is None
        assert np.array_equal(model.output.params.mu, fresh.output.params.mu)
        assert np.array_equal(model.hidden.weights, fresh.hidden.weights)
        base, base_history = train_baseline(train, val, config)
        assert len(base_history.epochs) == 0
        assert np.array_equal(base.output.weights, init_baseline_model(2, 2, config).output.weights)

    def test_reruns_are_bit_identical(self):
        train, val = _task(3)
        config = TrainConfig(epochs=8, hidden_dim=4, batch_size=8, seed=5)
        _, h1 = train_bayes(train, val, config)
        _, h2 = train_bayes(train, val, config)
        assert h1.epochs == h2.epochs and h1.best_epoch == h2.best_epoch

    def test_checkpoint_metric_matches_history_best(self):
        train, val = _task(4)
        config = TrainConfig(epochs=10, hidden_dim=4, batch_size=8, seed=6)
        model, history = train_bayes(train, val, config)
        best = history.epochs[history.best_epoch]
        acc, nll = validate_metrics(model, val)
        assert (acc, nll) == (best.val_accuracy, best.val_nll)
        assert best.val_nll == min(r.val_nll for r in history.epochs)

    def test_best_accuracy_metric(self):
        train, val = _task(5)
        config = TrainConfig(
            epochs=10, hidden_dim=4, batch_size=8, seed=6, early_best_metric="val_accuracy"
        )
        model, history = train_bayes(train, val, config)
        best = history.epochs[history.best_epoch]
        assert best.val_accuracy == max(r.val_accuracy for r in history.epochs)

    def test_baseline_history_has_zero_kl(self):
        train, val = _task(6)
        _, history = train_baseline(train, val, TrainConfig(epochs=5, hidden_dim=4, seed=2))
        assert all(r.train_kl == 0.0 for r in history.epochs)
        assert all(r.train_loss == r.train_nll for r in history.epochs)

    def test_sigma_zero_equivalence_with_baseline(self):
        train, val = _task(7)
        bayes_config = TrainConfig(epochs=20, hidden_dim=6, batch_size=8, seed=8,
                                   force_sigma_zero=True)
        base_config = TrainConfig(epochs=20, hidden_dim=6, batch_size=8, seed=8)
        _, hb = train_bayes(train, val, bayes_config)
        _, hc = train_baseline(train, val, base_config)
        assert hb.epochs == hc.epochs
        assert hb.best_epoch == hc.best_epoch

    def test_empty_dataset_rejected(self):
        train, val = _task()
        empty = train.take([])
        with pytest.raises(ValueError):
            train_bayes(empty, val, TrainConfig(epochs=1))

    def test_dimension_mismatch_rejected(self):
        train, _ = _task()
        val3 = synth_blobs(5, [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)], 1.0, seed=1)
        with pytest.raises(ValueError):
            train_bayes(train, val3, TrainConfig(epochs=1))


class TestBlobTask:
    def test_default_config_reaches_95_percent(self):
        train = synth_blobs(200, BLOB_MEANS, 1.0, seed=100, name="train")
        val = synth_blobs(100, BLOB_MEANS, 1.0, seed=200, name="val")
        config = TrainConfig(seed=5)
        _, hb = train_bayes(train, val, config)
        _, hc = train_baseline(train, val, config)
        assert max(r.val_accuracy for r in hb.epochs) >= 0.95
        assert max(r.val_accuracy for r in hc.epochs) >= 0.95

    def test_smoothed_loss_descends_to_best_epoch(self):
        # 10-epoch moving average of train_loss never climbs back above its
        # epoch-10 level on the way to the best epoch and ends below it, in
        # at least 9 of 10 seeds.  (Stepwise monotonicity is too strict: the
        # fixed-rate optimizer plus the 1-sample KL estimate jitter by a few
        # percent once converged.)
        wins = 0
        for seed in range(10):
            train = synth_blobs(200, BLOB_MEANS, 1.0, seed=1000 + seed, name="train")
            val = synth_blobs(100, BLOB_MEANS, 1.0, seed=2000 + seed, name="val")
            _, history = train_bayes(train, val, TrainConfig(seed=seed))
            losses = np.array([r.train_loss for r in history.epochs])
            smooth = np.convolve(losses, np.ones(10) / 10, mode="valid")
            end = max(history.best_epoch - 9, 0)
            window = smooth[: end + 1]
            wins += bool(np.all(window <= window[0] + 1e-9) and window[-1] <= window[0])
        assert wins >= 9


def test_history_csv_roundtrip(tmp_path):
    train, val = _task(8)
    config = TrainConfig(epochs=4, hidden_dim=4, seed=1)
    _, history = train_bayes(train, val, config)
    path = tmp_path / "history.csv"
    write_history_csv(history, path, config)
    lines = path.read_text().splitlines()
    header_idx = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert lines[header_idx] == "epoch,train_loss,train_nll,train_kl,val_accuracy,val_nll"
    rows = [line.split(",") for line in lines[header_idx + 1 :]]
    assert len(rows) == 4
    for i, row in enumerate(rows):
        assert int(row[0]) == i
        assert float(row[1]) == history.epochs[i].train_loss  # repr roundtrips exactly
    assert any(line.startswith("# learning_rate = 0.01") for line in lines)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(kl_weight_mode="sometimes")
    with pytest.raises(ValueError):
        TrainConfig(early_best_metric="vibes")
    flat = TrainConfig().to_flat_dict()
    assert TrainConfig.from_flat_dict(flat) == TrainConfig()
    with pytest.raises(ValueError):
        TrainConfig.from_flat_dict({"not_a_key": 1})


def test_flat_dict_key_order_is_pinned():
    # the echo headers of history.csv and model.json list the keys in this order
    assert list(TrainConfig().to_flat_dict()) == [
        "learning_rate", "batch_size", "epochs", "mc_samples_predict", "kl_weight_mode", "seed",
        "early_best_metric", "hidden_dim", "init_mu_sigma", "init_sigma", "per_example_sample",
        "force_sigma_zero", "prior_mix_weight", "prior_slab_sigma", "prior_spike_sigma",
    ]
    config = TrainConfig(batch_size=7, kl_weight_mode="per_dataset", per_example_sample=True,
                         prior=SpikeSlabPrior(0.25, 2.0, 0.5))
    text = {k: str(v) for k, v in config.to_flat_dict().items()}  # as read from a config file
    assert TrainConfig.from_flat_dict(text) == config


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("train", [train_bayes, train_baseline])
def test_non_finite_validation_metric_raises(train):
    train_set, _ = _task(3)
    # finite rows whose hidden-layer products overflow, so the validation NLL is NaN from epoch 0
    val = FeatureDataset(np.array([[1.7e308, 1.7e308], [-1.7e308, -1.7e308]]), np.array([0, 1]), ["a", "b"])
    with pytest.raises(NumericError, match="validation metric at epoch 0"):
        train(train_set, val, TrainConfig(epochs=3, hidden_dim=4, seed=1))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("train", [train_bayes, train_baseline])
def test_non_finite_validation_metric_raises_without_runtime_warnings(train):
    train_set, _ = _task(3)
    val = FeatureDataset(np.array([[1.7e308, 1.7e308], [-1.7e308, -1.7e308]]), np.array([0, 1]), ["a", "b"])
    with pytest.raises(NumericError, match="validation metric at epoch 0"):
        train(train_set, val, TrainConfig(epochs=3, hidden_dim=4, seed=1))


def test_per_example_draw_matches_sequential_sample_weights():
    model = init_bayes_model(3, 3, TrainConfig(hidden_dim=5, seed=2))
    batched, sequential = RngStream(8, 4, counter=5), RngStream(8, 4, counter=5)
    stacked = _draw_samples(model, batched, 7, per_example=True, force_zero=False)
    rows = [sample_weights(model.output.params, sequential) for _ in range(7)]
    assert stacked.epsilon.tobytes() == np.stack([r.epsilon for r in rows]).tobytes()
    assert stacked.theta.tobytes() == np.stack([r.theta for r in rows]).tobytes()
    assert batched.counter == sequential.counter


def _param_digest(model) -> str:
    digest = hashlib.sha256()
    for name, value in sorted(_param_dict(model).items()):
        digest.update(name.encode() + np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("train, expected", [
    (train_bayes, "171999702407697a9008193bb5a5f1e8efc5dc6b6bdcd54966ebd2cf61f99809"),
    (train_baseline, "75344c0978cff657ef98d915de70aa91af4bd684ed67e5ddf63405ba21744149"),
])
def test_shared_sample_and_baseline_parameters_are_pinned(tiny_task, train, expected):
    # the shared-sample and baseline updates must not move by a bit when the per-example path changes;
    # digests taken with numpy 2.4.6 and OpenBLAS on x86-64
    model, _ = train(*tiny_task, TrainConfig(epochs=5, hidden_dim=4, batch_size=16, seed=3))
    assert _param_digest(model) == expected


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_gradient_in_training_names_its_group():
    # a spike of 1e-160 squares to a subnormal: the prior's score is 0 * inf = NaN while the loss stays finite
    train_set, val = _task(3)
    config = TrainConfig(epochs=1, hidden_dim=4, seed=1, prior=SpikeSlabPrior(0.5, 1.0, 1e-160))
    with pytest.raises(NumericError, match="non-finite gradient in parameter group 'mu'"):
        train_bayes(train_set, val, config)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("per_example", [False, True])
def test_non_finite_loss_in_training_names_its_batch_index(per_example):
    train_set, val = _task(3)
    config = TrainConfig(epochs=1, hidden_dim=4, batch_size=16, seed=1, per_example_sample=per_example)
    first_batch = RngStream(config.seed).derive(_SHUFFLE_STREAM).permutation(len(train_set))[:16]
    features = train_set.features.copy()
    features[first_batch[5]] = [1.7e308, -1.7e308]  # row 5 of the first batch overflows its products
    bad = FeatureDataset(features, train_set.labels, train_set.ids)
    model = init_bayes_model(2, 2, config)
    samples = _draw_samples(model, RngStream(config.seed).derive(_EPS_STREAM), 16, per_example, False)
    with pytest.raises(NumericError, match="batch index 5"):  # the reference loss on the same first step
        _elbo_parts(model, bad.features[first_batch], bad.labels[first_batch], samples, kl_weight_for(config, len(bad)))
    with pytest.raises(NumericError, match="non-finite log-likelihood at batch index 5"):
        train_bayes(bad, val, config)

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayeshead import (
    FeatureDataset,
    NumericError,
    RngStream,
    SpikeSlabPrior,
    TrainConfig,
    init_bayes_model,
    inv_softplus,
    synth_blobs,
    train_baseline,
    train_bayes,
    training,
    validate_metrics,
)
from bayeshead.distributions import VariationalParams, kl_sample_estimate, sample_weights
from bayeshead.network import backward
from bayeshead.training import (
    _EPS_STREAM,
    _SHUFFLE_STREAM,
    _draw_samples,
    _elbo_parts,
    _param_dict,
    elbo_loss,
    init_baseline_model,
    kl_weight_for,
    rmsprop_step,
    write_history_csv,
)
from conftest import BLOB_MEANS, build_note

_FINITE = st.floats(-1e6, 1e6)


class TestRmsprop:
    def test_zero_gradient_leaves_params_and_decays_accum(self):
        params, accum = np.array([1.0, -2.0]), np.array([0.4, 0.4])
        rmsprop_step(params, np.zeros(2), accum, lr=0.01)
        assert np.array_equal(params, [1.0, -2.0])
        assert np.allclose(accum, 0.36, atol=1e-15)

    def test_hand_update(self):
        params, accum = np.array([1.0]), np.zeros(1)
        rmsprop_step(params, np.array([1.0]), accum, lr=0.01)
        assert float(accum[0]) == pytest.approx(0.1, abs=1e-15)
        expected_step = 0.01 / (math.sqrt(0.1) + 1e-7)
        assert float(1.0 - params[0]) == pytest.approx(expected_step, abs=1e-12)

    def test_gradient_scale_invariance_from_fresh_state(self):
        # first step magnitude is ~lr/sqrt(1-decay) regardless of |g|
        target = 0.01 / math.sqrt(0.1)
        for c in (0.1, 1.0, 10.0):
            params = np.array([0.0])
            rmsprop_step(params, np.array([c]), np.zeros(1), lr=0.01)
            assert abs(abs(float(params[0])) - target) < 1e-6

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(_FINITE, _FINITE, st.floats(0.0, 1e6)), min_size=1, max_size=16),
        st.floats(1e-6, 1.0),
    )
    def test_in_place_step_has_the_bits_of_the_out_of_place_formula(self, rows, lr):
        params, grad, accum = (np.array(col) for col in zip(*rows))
        a = 0.9 * accum + (1.0 - 0.9) * grad * grad
        expected = params - lr * grad / (np.sqrt(a) + 1e-7)
        rmsprop_step(params, grad, accum, lr)
        assert params.tobytes() == expected.tobytes()
        assert accum.tobytes() == a.tobytes()


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

    @pytest.mark.parametrize("train_head", [train_bayes, train_baseline], ids=["bayes", "baseline"])
    def test_a_tied_val_nll_keeps_the_first_epoch_with_it(self, monkeypatch, train_head):
        # epochs 1 and 2 tie on val_nll; the checkpoint is epoch 1's parameters, as a 2-epoch run leaves them
        train, val = _task(5)

        def scripted_run(epochs):
            script = iter([0.9, 0.5, 0.5, 0.7])
            monkeypatch.setattr(training, "validate_metrics", lambda model, dataset: (0.5, next(script)))
            model, history = train_head(train, val, TrainConfig(epochs=epochs, hidden_dim=4, batch_size=8, seed=6))
            return history.best_epoch, {name: v.tobytes() for name, v in _param_dict(model).items()}

        best_epoch, params = scripted_run(4)
        assert best_epoch == 1
        assert params == scripted_run(2)[1]

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
    for rate in (math.nan, math.inf):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=rate)
    flat = TrainConfig().to_flat_dict()
    assert TrainConfig.from_flat_dict(flat) == TrainConfig()
    with pytest.raises(ValueError):
        TrainConfig.from_flat_dict({"not_a_key": 1})


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_a_seed_outside_64_bits_is_rejected(seed):
    # a stream keeps a seed's low 64 bits, so these would repeat the draws of seed mod 2**64
    with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\*\*64\), got {seed}$"):
        TrainConfig(seed=seed)
    assert TrainConfig(seed=2**64 - 1).seed == 2**64 - 1


def test_flat_dict_key_order_is_pinned():
    # the echo headers of history.csv and model.json list the keys in this order
    assert list(TrainConfig().to_flat_dict()) == [
        "learning_rate", "batch_size", "epochs", "seed", "hidden_dim", "per_example_sample",
        "force_sigma_zero", "prior_mix_weight", "prior_slab_sigma", "prior_spike_sigma",
    ]
    config = TrainConfig(batch_size=7, hidden_dim=5, per_example_sample=True,
                         prior=SpikeSlabPrior(0.25, 2.0, 0.5))
    text = {k: str(v) for k, v in config.to_flat_dict().items()}  # as read from a config file
    assert TrainConfig.from_flat_dict(text) == config


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
    # the KL's one weight draw, then the (B, C) logit noise, from the same stream
    model = init_bayes_model(3, 3, TrainConfig(hidden_dim=5, seed=2))
    batched, sequential = RngStream(8, 4, counter=5), RngStream(8, 4, counter=5)
    drawn = _draw_samples(model, batched, 7, per_example=True, force_zero=False)
    weights = sample_weights(model.output.params, sequential)
    noise = np.stack([sequential.normal(3) for _ in range(7)])
    assert drawn.epsilon.tobytes() == weights.epsilon.tobytes()
    assert drawn.theta.tobytes() == weights.theta.tobytes()
    assert drawn.logit_noise.shape == (7, 3) and drawn.logit_noise.tobytes() == noise.tobytes()
    assert batched.counter == sequential.counter
    assert _draw_samples(model, RngStream(8), 7, per_example=False, force_zero=False).logit_noise is None


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
    assert _param_digest(model) == expected, build_note()


def test_per_example_parameters_are_pinned(tiny_task):
    # digest taken with numpy 2.4.6 and OpenBLAS on x86-64
    config = TrainConfig(epochs=5, hidden_dim=4, batch_size=16, seed=3, per_example_sample=True)
    model, _ = train_bayes(*tiny_task, config)
    assert _param_digest(model) == "d4d7f958e384fdf27892c3d9543bdb0c6501b6e3ad054f69b973477ea0332157", build_note()


def _wide_task(n, n_val=12, dim=64, n_classes=4):
    """n training rows of ``dim``-wide features around one-hot class means, labels cycling over the classes."""
    def rows(count, seed):
        labels = np.arange(count) % n_classes
        features = RngStream(seed).normal(count * dim).reshape(count, dim)
        features[np.arange(count), labels] += 3.0
        return FeatureDataset(features, labels, [str(i) for i in range(count)])
    return rows(n, 50 + n), rows(n_val, 90)


@pytest.mark.parametrize("n, head, expected", [
    (33, "shared_sample", "d283a456e0edd93e1e669f2faa2346e02a11dbf79dd5a444962ef6d42c8146bd"),  # 33 rows: a one-row tail batch
    (33, "per_example", "61bf80ed089f28aed9530d54f3ffafffdf9bac03f6ac0202c3e70dd54333f61e"),
    (33, "baseline", "8bc95817fd370a7355d124e22e06531962c274069a0e356cc3396d004c324e33"),
    (10, "shared_sample", "f63b255924414c929f8dd3188ddf3750044b131ada20295f641ccf784f061685"),  # 10 rows: batch_size > n
    (10, "per_example", "461ce37eabce9ad79791b5cdb06a39dc16d4f353bdb4fc0c78f1858955b56934"),
    (10, "baseline", "63fae928a049f58f3dc655c2d05dcda3761459d37355b83cb3c86fcc22cbde7a"),
])
def test_tail_and_oversized_batch_runs_are_pinned(n, head, expected):
    # parameters and history of every head where a step sees fewer rows than batch_size;
    # digests taken with numpy 2.4.6 and OpenBLAS on x86-64
    config = TrainConfig(epochs=3, hidden_dim=8, batch_size=32, seed=5, per_example_sample=head == "per_example")
    model, history = (train_baseline if head == "baseline" else train_bayes)(*_wide_task(n), config)
    digest = hashlib.sha256(_param_digest(model).encode() + repr(history).encode()).hexdigest()
    assert digest == expected, build_note()


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


_BAYES_GROUPS = ("hidden_w", "hidden_b", "mu", "rho")
_BASELINE_GROUPS = ("hidden_w", "hidden_b", "out_w", "out_b")


def _poison_gradients(monkeypatch, at_step, bad: dict):
    """Make ``backward``'s gradients at call ``at_step`` hold ``bad[group] = (flat index, value)``,
    written into the returned views, which the optimizer reads through the run's flat gradient."""
    calls = []

    def poisoned(*args, **kwargs):
        grads = backward(*args, **kwargs)
        if len(calls) == at_step:
            for group, (index, value) in bad.items():
                grads[group].reshape(-1)[index] = value
        calls.append(None)
        return grads

    monkeypatch.setattr(training, "backward", poisoned)


@pytest.mark.parametrize("train, group", [
    *((train_bayes, g) for g in _BAYES_GROUPS), *((train_baseline, g) for g in _BASELINE_GROUPS),
])
@pytest.mark.parametrize("index", [0, -1])  # each end of the group's span in the flat buffer
def test_non_finite_gradient_names_its_group_in_the_flat_step(monkeypatch, train, group, index):
    train_set, val = _task(3)
    config = TrainConfig(epochs=2, hidden_dim=4, batch_size=8, seed=1)
    _poison_gradients(monkeypatch, 5, {group: (index, np.nan)})
    with pytest.raises(NumericError, match=f"non-finite gradient in parameter group '{group}'$"):
        train(train_set, val, config)


@pytest.mark.parametrize("train, groups", [
    (train_bayes, _BAYES_GROUPS), (train_baseline, _BASELINE_GROUPS),
])
def test_non_finite_gradient_names_the_first_bad_group_in_order(monkeypatch, train, groups):
    train_set, val = _task(3)
    config = TrainConfig(epochs=1, hidden_dim=4, batch_size=8, seed=1)
    _poison_gradients(monkeypatch, 0, {groups[3]: (0, np.nan), groups[1]: (-1, np.inf)})
    with pytest.raises(NumericError, match=f"parameter group '{groups[1]}'$"):
        train(train_set, val, config)


@pytest.mark.parametrize("train, per_example", [(train_bayes, False), (train_bayes, True), (train_baseline, False)])
def test_each_update_reads_the_concatenated_groups_of_its_step(monkeypatch, train, per_example):
    # the run's flat gradient stands in for concatenating backward's groups, full batches and tails alike
    train_set, val = _task(4)
    config = TrainConfig(epochs=2, hidden_dim=4, batch_size=8, seed=2, per_example_sample=per_example)
    returned, same = [], []

    def traced_backward(*args, **kwargs):
        returned.append(backward(*args, **kwargs))
        return returned[-1]

    def traced_step(params, grad, accum, lr):
        same.append(grad.tobytes() == np.concatenate([g.ravel() for g in returned[-1].values()]).tobytes())
        rmsprop_step(params, grad, accum, lr)

    monkeypatch.setattr(training, "backward", traced_backward)
    monkeypatch.setattr(training, "rmsprop_step", traced_step)
    train(train_set, val, config)
    assert same == [True] * (config.epochs * math.ceil(len(train_set) / config.batch_size))
    assert len(train_set) % config.batch_size  # so the run has a tail batch


def _record_normal_calls(monkeypatch):
    """(stream, stream id, n) of every ``RngStream.normal`` call."""
    calls, normal = [], RngStream.normal

    def recorded(self, n):
        calls.append((self, self.stream_id, n))
        return normal(self, n)

    monkeypatch.setattr(RngStream, "normal", recorded)
    return calls


def _eps_calls(calls, seed):
    eps_id = RngStream(seed).derive(_EPS_STREAM).stream_id
    return [(stream, n) for stream, sid, n in calls if sid == eps_id]


def test_shared_sample_epoch_draws_its_noise_in_one_block(monkeypatch):
    train_set, val = _task(3, n_train=30)
    config = TrainConfig(epochs=2, hidden_dim=4, batch_size=8, seed=1)
    k = (config.hidden_dim + 1) * 2
    steps = math.ceil(len(train_set) / config.batch_size)
    assert len(train_set) % config.batch_size != 0
    drawn = []

    def recorded_sample_weights(params, stream):
        sample = sample_weights(params, stream)
        drawn.append(sample.epsilon.copy())
        return sample

    monkeypatch.setattr(training, "sample_weights", recorded_sample_weights)
    calls = _record_normal_calls(monkeypatch)
    train_bayes(train_set, val, config)

    eps = _eps_calls(calls, config.seed)
    assert [n for _, n in eps] == [steps * k] * config.epochs  # 2 * steps * k words per epoch
    reference = RngStream(config.seed).derive(_EPS_STREAM)
    model = init_bayes_model(2, 2, config)
    expected = [sample_weights(model.output.params, reference).epsilon for _ in range(steps * config.epochs)]
    assert len(drawn) == len(expected)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(drawn, expected))
    assert eps[-1][0].counter == reference.counter == 2 * k * steps * config.epochs


def test_shared_training_draw_has_each_coordinate_s_posterior_moments():
    # 400 epochs of 25 steps, each epoch's K-normal reads from one _NoiseBlock as _train makes them: each
    # coordinate of theta has mean mu (z bound) and variance softplus(rho)^2 (chi-square bound through the
    # Wilson-Hilferty normal approximation), both at 5 standard errors and a fixed seed, so it cannot flake
    mu = np.array([-3.0, -0.5, 0.0, 0.25, 1.0, 6.0])
    params = VariationalParams(mu, inv_softplus(np.array([1e-3, 0.05, 0.3, 1.0, 2.5, 8.0])))
    sigma = params.sigma
    epochs, steps, k = 400, 25, len(params)
    eps_stream = RngStream(2029).derive(_EPS_STREAM)
    theta = []
    for _ in range(epochs):
        noise = training._NoiseBlock(eps_stream.normal(steps * k))
        theta += [sample_weights(params, noise).theta for _ in range(steps)]
    theta = np.array(theta)
    m = epochs * steps
    assert theta.shape == (m, k) and eps_stream.counter == 2 * m * k
    z_mean = (theta.mean(axis=0) - mu) / (sigma / math.sqrt(m))
    assert np.all(np.abs(z_mean) < 5.0), z_mean
    dof = m - 1
    chi2 = dof * theta.var(axis=0, ddof=1) / sigma**2
    z_var = (np.cbrt(chi2 / dof) - (1.0 - 2.0 / (9.0 * dof))) / math.sqrt(2.0 / (9.0 * dof))
    assert np.all(np.abs(z_var) < 5.0), z_var


def test_force_sigma_zero_and_per_example_training_draw_as_before(monkeypatch):
    train_set, val = _task(3, n_train=30)
    k, c = (4 + 1) * 2, 2
    calls = _record_normal_calls(monkeypatch)
    train_bayes(train_set, val, TrainConfig(epochs=2, hidden_dim=4, batch_size=8, seed=1, force_sigma_zero=True))
    assert _eps_calls(calls, 1) == []
    calls.clear()
    drawn = []

    def recorded_backward(model, features, labels, samples, kl_weight, buffers, log_p):
        drawn.append((samples.epsilon.copy(), samples.logit_noise.copy()))
        return backward(model, features, labels, samples, kl_weight, buffers, log_p)

    monkeypatch.setattr(training, "backward", recorded_backward)
    train_bayes(train_set, val, TrainConfig(epochs=2, hidden_dim=4, batch_size=8, seed=2, per_example_sample=True))
    eps = _eps_calls(calls, 2)
    n = len(train_set)
    steps = math.ceil(n / 8)
    assert [n_drawn for _, n_drawn in eps] == [steps * k + n * c] * 2  # one block per epoch
    assert eps[-1][0].counter == 2 * (steps * k + n * c) * 2
    # the block's reads are per-step draws: K normals, then B * C, from the same stream
    reference = RngStream(2).derive(_EPS_STREAM)
    expected = [(reference.normal(k), reference.normal(min(8, n - s) * c).reshape(-1, c))
                for _ in range(2) for s in range(0, n, 8)]
    assert len(drawn) == len(expected)
    for (e, noise), (want_e, want_noise) in zip(drawn, expected):
        assert e.tobytes() == want_e.tobytes() and noise.tobytes() == want_noise.tobytes()


@pytest.mark.parametrize("per_example", [False, True])
def test_each_steps_kl_from_the_block_pass_equals_its_draw_alone(monkeypatch, per_example):
    # the run forms its steps' KL values a block of training.KL_BLOCK rows at a time; each must have
    # the bits of kl_sample_estimate on that step's draw alone, and train_kl their weighted sum in step order
    train_set, val = _task(5, n_train=98)  # 196 rows in batches of 3: 66 steps, the last of one row
    config = TrainConfig(epochs=2, hidden_dim=4, batch_size=3, seed=4, per_example_sample=per_example)
    n, steps = len(train_set), math.ceil(len(train_set) / config.batch_size)
    assert steps > training.KL_BLOCK and n % config.batch_size == 1
    draws, blocks = [], []

    def recorded_backward(model, features, labels, samples, kl_weight, buffers, log_p):
        draws.append((samples.theta.copy(), model.output.params.mu.copy(), samples.sigma.copy()))
        return backward(model, features, labels, samples, kl_weight, buffers, log_p)

    def recorded_kl(*args, **kwargs):
        blocks.append(kl_sample_estimate(*args, **kwargs))
        return blocks[-1]

    monkeypatch.setattr(training, "backward", recorded_backward)
    monkeypatch.setattr(training, "kl_sample_estimate", recorded_kl)
    _, history = train_bayes(train_set, val, config)
    assert [len(b) for b in blocks] == [training.KL_BLOCK, steps - training.KL_BLOCK] * config.epochs
    alone = [float(kl_sample_estimate(theta, mu, sigma, config.prior)) for theta, mu, sigma in draws]
    assert np.concatenate(blocks).tobytes() == np.array(alone).tobytes()
    kl_w = kl_weight_for(config, n)
    for epoch, record in enumerate(history.epochs):
        total = 0.0
        for kl in alone[epoch * steps : (epoch + 1) * steps]:
            total += kl_w * kl
        assert np.float64(record.train_kl).tobytes() == np.float64(total).tobytes()
        assert record.train_loss == record.train_nll + total

"""ELBO minimization for the bayesian head and cross-entropy training of
the deterministic baseline, sharing one RMSprop loop with best-weights
checkpointing on a validation metric.

Objective per step: summed batch NLL + kl_weight * KL_estimate, where
kl_weight is 1/num_batches ("per_batch", so a full epoch accumulates one
KL term) or 1/N ("per_dataset").  A step is one ``network.backward`` call,
which gives the loss parts and the gradients from one forward pass, and one
RMSprop update, which checks the gradients are finite.  Both heads use the
identical update path, so forcing sigma = 0 and dropping the KL reproduces
the baseline bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .core import inv_softplus, log_softmax
from .data import FeatureDataset, atomic_write, echo_header
from .distributions import (
    SpikeSlabPrior,
    VariationalParams,
    kl_sample_estimate,
    mean_sample,
    sample_from_epsilon,
    sample_weights,
    stack_samples,
)
from .errors import NumericError
from .network import (
    DenseLayer,
    HeadModel,
    VariationalDenseLayer,
    backward,
    batch_forward,
    batch_nll,
)
from .rng import RngStream

# derive keys off the run's root stream; fixed so reruns are bit-identical
_INIT_STREAM = 0
_SHUFFLE_STREAM = 1
_EPS_STREAM = 2

_METRICS = ("val_nll", "val_accuracy")
_KL_MODES = ("per_batch", "per_dataset")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 32
    epochs: int = 150
    mc_samples_predict: int = 50
    kl_weight_mode: str = "per_batch"
    seed: int = 0
    prior: SpikeSlabPrior = field(default_factory=SpikeSlabPrior)
    early_best_metric: str = "val_nll"
    hidden_dim: int = 32
    init_mu_sigma: float = 0.1
    init_sigma: float = 0.05
    per_example_sample: bool = False
    force_sigma_zero: bool = False  # debugging/equivalence mode: sigma = 0 and no KL

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1 or self.epochs < 0 or self.mc_samples_predict < 1:
            raise ValueError("batch_size >= 1, epochs >= 0, mc_samples_predict >= 1 required")
        if self.kl_weight_mode not in _KL_MODES:
            raise ValueError(f"kl_weight_mode must be one of {_KL_MODES}")
        if self.early_best_metric not in _METRICS:
            raise ValueError(f"early_best_metric must be one of {_METRICS}")
        if self.hidden_dim < 1 or self.init_mu_sigma < 0 or self.init_sigma <= 0:
            raise ValueError("invalid architecture/initialization settings")

    def to_flat_dict(self) -> dict:
        """Config fields in declaration order, the prior's last as ``prior_<field>``."""
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "prior"}
        d.update({f"prior_{f.name}": getattr(self.prior, f.name) for f in fields(self.prior)})
        return d

    @classmethod
    def from_flat_dict(cls, mapping: dict) -> "TrainConfig":
        base = cls().to_flat_dict()
        unknown = set(mapping) - set(base)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged = {**base, **mapping}
        values = {name: _parse_like(default, merged[name]) for name, default in base.items()}
        prior = SpikeSlabPrior(**{f.name: values.pop(f"prior_{f.name}") for f in fields(SpikeSlabPrior)})
        return cls(prior=prior, **values)


def _parse_like(default, raw):
    """``raw`` (a value or its text) parsed to the type of ``default``."""
    if isinstance(default, bool):
        return _parse_bool(raw)
    if isinstance(default, (int, float)):
        return type(default)(raw)
    return str(raw)


def _parse_bool(raw) -> bool:
    if isinstance(raw, bool):
        return raw
    text = str(raw).strip().lower()
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise ValueError(f"cannot parse boolean value {raw!r}")


@dataclass
class RmspropState:
    accum: dict[str, np.ndarray]
    decay: float = 0.9
    epsilon_stab: float = 1e-7

    @classmethod
    def zeros_like(cls, params: dict, decay: float = 0.9, epsilon_stab: float = 1e-7):
        return cls({k: np.zeros_like(v) for k, v in params.items()}, decay, epsilon_stab)


def rmsprop_step(params: dict, grads: dict, state: RmspropState, lr: float):
    """One RMSprop update; returns new (params, state) without mutating inputs."""
    new_params, new_accum = {}, {}
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in parameter group '{name}'")
        a = state.decay * state.accum[name] + (1.0 - state.decay) * g * g
        new_params[name] = p - lr * g / (np.sqrt(a) + state.epsilon_stab)
        new_accum[name] = a
    return new_params, RmspropState(new_accum, state.decay, state.epsilon_stab)


@dataclass(frozen=True)
class EpochRecord:
    train_loss: float
    train_nll: float
    train_kl: float
    val_accuracy: float
    val_nll: float


@dataclass
class TrainHistory:
    """Per-epoch totals: train_nll/train_kl sum over batches (KL already
    weighted), val metrics from a deterministic posterior-mean pass."""

    epochs: list[EpochRecord]
    best_epoch: int | None

    def __len__(self) -> int:
        return len(self.epochs)


def kl_weight_for(config: TrainConfig, n_examples: int) -> float:
    num_batches = math.ceil(n_examples / config.batch_size)
    if config.kl_weight_mode == "per_batch":
        return 1.0 / num_batches
    return 1.0 / n_examples


def init_bayes_model(feature_dim: int, n_classes: int, config: TrainConfig) -> HeadModel:
    root = RngStream(config.seed).derive(_INIT_STREAM)
    hidden = _init_hidden(feature_dim, config, root.derive(0))
    k = config.hidden_dim * n_classes + n_classes
    mu = root.derive(1).normal(k) * config.init_mu_sigma
    rho = np.full(k, float(inv_softplus(config.init_sigma)))
    output = VariationalDenseLayer(
        VariationalParams(mu, rho), config.prior, config.hidden_dim, n_classes
    )
    return HeadModel(hidden, output, n_classes)


def init_baseline_model(feature_dim: int, n_classes: int, config: TrainConfig) -> HeadModel:
    root = RngStream(config.seed).derive(_INIT_STREAM)
    hidden = _init_hidden(feature_dim, config, root.derive(0))
    k = config.hidden_dim * n_classes + n_classes
    vec = root.derive(1).normal(k) * config.init_mu_sigma  # same draws as the bayesian mu
    split = config.hidden_dim * n_classes
    output = DenseLayer(vec[:split].reshape(config.hidden_dim, n_classes), vec[split:], "identity")
    return HeadModel(hidden, output, n_classes)


def _init_hidden(feature_dim: int, config: TrainConfig, stream: RngStream) -> DenseLayer:
    scale = math.sqrt(2.0 / feature_dim)  # He init for the relu layer
    w = stream.normal(feature_dim * config.hidden_dim).reshape(feature_dim, config.hidden_dim)
    return DenseLayer(w * scale, np.zeros(config.hidden_dim), "relu")


def elbo_loss(model: HeadModel, features, labels, stream: RngStream, kl_weight: float,
              per_example: bool = False):
    """Stochastic (loss, nll, kl) for one batch; draws theta from ``stream``."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    samples = _draw_samples(model, stream, features.shape[0], per_example, force_zero=False)
    return _elbo_parts(model, features, labels, samples, kl_weight)[:3]


def _draw_samples(model, stream, batch_size, per_example, force_zero):
    if not model.is_bayesian:
        return None
    params = model.output.params
    if force_zero:
        return mean_sample(params)
    if per_example:
        # one call draws the same bits as batch_size sample_weights calls: each row takes 2K words
        eps = stream.normal(batch_size * len(params)).reshape(batch_size, len(params))
        return sample_from_epsilon(params, eps)
    return sample_weights(params, stream)


def _elbo_parts(model, features, labels, samples, kl_weight):
    """(loss, nll, kl, samples) of one batch; the reference loss that ``backward``'s loss parts equal."""
    samples = stack_samples(samples)
    nll = batch_nll(batch_forward(model, features, samples), labels)
    if model.is_bayesian and samples is not None and kl_weight != 0.0:
        kl = kl_sample_estimate(model.output.params, model.output.prior, samples)
    else:
        kl = 0.0
    return nll + kl_weight * kl, nll, kl, samples


def _param_dict(model: HeadModel) -> dict:
    if model.is_bayesian:
        return {
            "hidden_w": model.hidden.weights,
            "hidden_b": model.hidden.bias,
            "mu": model.output.params.mu,
            "rho": model.output.params.rho,
        }
    return {
        "hidden_w": model.hidden.weights,
        "hidden_b": model.hidden.bias,
        "out_w": model.output.weights,
        "out_b": model.output.bias,
    }


def _assign_params(model: HeadModel, params: dict) -> None:
    model.hidden.weights = params["hidden_w"]
    model.hidden.bias = params["hidden_b"]
    if model.is_bayesian:
        model.output.params.mu = params["mu"]
        model.output.params.rho = params["rho"]
    else:
        model.output.weights = params["out_w"]
        model.output.bias = params["out_b"]


def validate_metrics(model: HeadModel, dataset: FeatureDataset) -> tuple[float, float]:
    """(accuracy, mean NLL) from a deterministic pass at the mean weights."""
    sample = mean_sample(model.output.params) if model.is_bayesian else None
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite metric raises NumericError in _train
        logits = batch_forward(model, dataset.features, sample)
        logp = log_softmax(logits)
    preds = np.argmax(logits, axis=1)
    acc = float(np.mean(preds == dataset.labels))
    nll = float(-np.mean(logp[np.arange(len(dataset)), dataset.labels]))
    return acc, nll


def train_bayes(dataset: FeatureDataset, val: FeatureDataset, config: TrainConfig):
    return _train(dataset, val, config, bayesian=True)


def train_baseline(dataset: FeatureDataset, val: FeatureDataset, config: TrainConfig):
    return _train(dataset, val, config, bayesian=False)


def _train(dataset, val, config, bayesian):
    if len(dataset) == 0 or len(val) == 0:
        raise ValueError("training and validation datasets must be nonempty")
    if dataset.feature_dim != val.feature_dim:
        raise ValueError("train/val feature dimensions differ")
    n_classes = max(dataset.n_classes, val.n_classes, 2)

    if bayesian:
        model = init_bayes_model(dataset.feature_dim, n_classes, config)
    else:
        model = init_baseline_model(dataset.feature_dim, n_classes, config)
    state = RmspropState.zeros_like(_param_dict(model))
    shuffle_stream = RngStream(config.seed).derive(_SHUFFLE_STREAM)
    eps_stream = RngStream(config.seed).derive(_EPS_STREAM)

    n = len(dataset)
    kl_w = kl_weight_for(config, n) if (bayesian and not config.force_sigma_zero) else 0.0
    records: list[EpochRecord] = []
    best_epoch: int | None = None
    best_value: float | None = None
    best_params: dict | None = None

    for epoch in range(config.epochs):
        order = shuffle_stream.permutation(n)
        epoch_nll = 0.0
        epoch_kl = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            feats = dataset.features[idx]
            labels = dataset.labels[idx]
            samples = _draw_samples(model, eps_stream, idx.shape[0], config.per_example_sample,
                                    force_zero=config.force_sigma_zero)
            grads = backward(model, feats, labels, samples, kl_w)
            new_params, state = rmsprop_step(_param_dict(model), grads, state, config.learning_rate)
            _assign_params(model, new_params)
            epoch_nll += grads.nll
            epoch_kl += kl_w * grads.kl
        val_acc, val_nll = validate_metrics(model, val)
        if not (math.isfinite(val_acc) and math.isfinite(val_nll)):
            # a NaN would never win the checkpoint comparison and freeze the best epoch silently
            raise NumericError(f"non-finite validation metric at epoch {epoch}: nll {val_nll}, accuracy {val_acc}")
        records.append(EpochRecord(epoch_nll + epoch_kl, epoch_nll, epoch_kl, val_acc, val_nll))
        value = val_nll if config.early_best_metric == "val_nll" else val_acc
        improved = (
            best_value is None
            or (config.early_best_metric == "val_nll" and value < best_value)
            or (config.early_best_metric == "val_accuracy" and value > best_value)
        )
        if improved:
            best_value = value
            best_epoch = epoch
            best_params = {k: v.copy() for k, v in _param_dict(model).items()}

    if best_params is not None:
        _assign_params(model, best_params)
    return model, TrainHistory(records, best_epoch)


def write_history_csv(history: TrainHistory, path, config: TrainConfig | None = None) -> None:
    """Emit the per-epoch metrics as CSV, config echoed in '#' comment lines."""
    best = {} if history.best_epoch is None else {"best_epoch": history.best_epoch}
    lines = echo_header(None if config is None else config.to_flat_dict(), **best)
    lines.append("epoch,train_loss,train_nll,train_kl,val_accuracy,val_nll")
    for i, r in enumerate(history.epochs):
        lines.append(
            f"{i},{r.train_loss!r},{r.train_nll!r},{r.train_kl!r},{r.val_accuracy!r},{r.val_nll!r}"
        )
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")

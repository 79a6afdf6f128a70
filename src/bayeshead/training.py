"""ELBO minimization for the bayesian head and cross-entropy training of
the deterministic baseline, sharing one RMSprop loop with best-weights
checkpointing on a validation metric.

Objective per step: summed batch NLL + kl_weight * KL_estimate, where
kl_weight is 1/num_batches, so a full epoch accumulates one KL term
(Blundell et al. 2015).  A step is one ``network.backward`` call, which
gives the loss parts and the gradients from one forward pass and one pass
over the spike-and-slab prior (``kl_sample_estimate`` returns the KL with
the prior's score), one RMSprop update and one finiteness check on the
parameters.  Both heads use the identical update path, so forcing sigma = 0
and dropping the KL reproduces the baseline bit for bit.  Both heads draw their
initial weights through one ``_init_layers``, so the baseline's output
weights are the bayesian head's initial mu; validation runs
``network.mean_forward``, the logits path that training's passes use, 1024
rows at a time; and the checkpoint keeps the first epoch with the lowest
val_nll.

The parameter groups live as views in one contiguous buffer, so the update
is one in-place optimizer call over the gradients concatenated into one
reused buffer, and the best-epoch checkpoint is one copy; elementwise
arithmetic gives the same bits as a call per group.  Each run also makes
one ``network.StepBuffers`` from (B, D, H, C, K): every step gathers its
batch into it and ``backward`` writes its intermediates and gradients
there, so what a step still allocates is its draw, the optimizer's
temporaries and a few small arrays.  Both bayesian heads draw an epoch's
noise in one ``normal`` call and read K normals per step, then B * C for the
per-example head's logit noise: the stream is counter-based, so the bits and
the final counter are those of draws per step.
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
    sample_weights,
)
from .errors import NumericError
from .network import (
    DenseLayer,
    HeadModel,
    StepBuffers,
    VariationalDenseLayer,
    backward,
    batch_forward,
    batch_nll,
    mean_forward,
)
from .rng import RngStream

# derive keys off the run's root stream; fixed so reruns are bit-identical
_INIT_STREAM = 0
_SHUFFLE_STREAM = 1
_EPS_STREAM = 2

_RMSPROP_DECAY = 0.9  # the running mean's weight on its previous value
_RMSPROP_EPSILON = 1e-7  # added to the root mean square before it divides the gradient

_INIT_MU_SIGMA = 0.1  # scale of the output layer's initial weights (the bayesian head's mu)
_INIT_SIGMA = 0.05  # the bayesian head's initial posterior scale


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 32
    epochs: int = 150
    seed: int = 0
    prior: SpikeSlabPrior = field(default_factory=SpikeSlabPrior)
    hidden_dim: int = 32
    per_example_sample: bool = False
    force_sigma_zero: bool = False  # debugging/equivalence mode: sigma = 0 and no KL

    def __post_init__(self):
        if not (0 < self.learning_rate < math.inf):  # NaN fails it too
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.batch_size < 1 or self.epochs < 0 or self.hidden_dim < 1:
            raise ValueError("batch_size >= 1, epochs >= 0, hidden_dim >= 1 required")

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
        values = {name: parse_like(default, merged[name]) for name, default in base.items()}
        prior = SpikeSlabPrior(**{f.name: values.pop(f"prior_{f.name}") for f in fields(SpikeSlabPrior)})
        return cls(prior=prior, **values)


def parse_like(default, raw):
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


def rmsprop_step(params: np.ndarray, grad: np.ndarray, accum: np.ndarray, lr: float) -> None:
    """One RMSprop update of ``params`` and its running mean square ``accum``, both in place.

    The operations run in the order that gives the bits of the out-of-place
    ``a = DECAY * accum + (1 - DECAY) * grad * grad`` and ``params - lr * grad / (sqrt(a) + EPSILON)``.
    """
    accum *= _RMSPROP_DECAY
    accum += (1.0 - _RMSPROP_DECAY) * grad * grad
    params -= lr * grad / (np.sqrt(accum) + _RMSPROP_EPSILON)


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


def kl_weight_for(config: TrainConfig, n_examples: int) -> float:
    return 1.0 / math.ceil(n_examples / config.batch_size)


def init_bayes_model(feature_dim: int, n_classes: int, config: TrainConfig) -> HeadModel:
    hidden, mu = _init_layers(feature_dim, n_classes, config)
    rho = np.full(len(mu), float(inv_softplus(_INIT_SIGMA)))
    output = VariationalDenseLayer(
        VariationalParams(mu, rho), config.prior, config.hidden_dim, n_classes
    )
    return HeadModel(hidden, output)


def init_baseline_model(feature_dim: int, n_classes: int, config: TrainConfig) -> HeadModel:
    hidden, vec = _init_layers(feature_dim, n_classes, config)  # vec: the bayesian head's mu draws
    split = config.hidden_dim * n_classes
    output = DenseLayer(vec[:split].reshape(config.hidden_dim, n_classes), vec[split:])
    return HeadModel(hidden, output)


def _init_layers(feature_dim: int, n_classes: int, config: TrainConfig) -> tuple[DenseLayer, np.ndarray]:
    """Both heads' initial draws: the He-initialized relu hidden layer and the flat output vector
    (H * C weights, then C biases), from substreams 0 and 1 of the run's init stream."""
    root = RngStream(config.seed).derive(_INIT_STREAM)
    scale = math.sqrt(2.0 / feature_dim)
    w = root.derive(0).normal(feature_dim * config.hidden_dim).reshape(feature_dim, config.hidden_dim)
    hidden = DenseLayer(w * scale, np.zeros(config.hidden_dim))
    k = config.hidden_dim * n_classes + n_classes
    return hidden, root.derive(1).normal(k) * _INIT_MU_SIGMA


def elbo_loss(model: HeadModel, features, labels, stream: RngStream, kl_weight: float,
              per_example: bool = False):
    """Stochastic (loss, nll, kl) for one batch; draws theta from ``stream``."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    samples = _draw_samples(model, stream, features.shape[0], per_example, force_zero=False)
    return _elbo_parts(model, features, labels, samples, kl_weight)


def _draw_samples(model, stream, batch_size, per_example, force_zero):
    if not model.is_bayesian:
        return None
    params = model.output.params
    if force_zero:
        return mean_sample(params)
    sample = sample_weights(params, stream)
    if per_example:  # (B, C) logit noise after the K normals of the KL's draw
        sample.logit_noise = stream.normal(batch_size * model.n_classes).reshape(batch_size, model.n_classes)
    return sample


def _elbo_parts(model, features, labels, samples, kl_weight):
    """(loss, nll, kl) of one batch; the reference loss that ``backward``'s loss parts equal."""
    nll = batch_nll(batch_forward(model, features, samples), labels)
    if model.is_bayesian and samples is not None and kl_weight != 0.0:
        kl = kl_sample_estimate(model.output.params, model.output.prior, samples)[0]
    else:
        kl = 0.0
    return nll + kl_weight * kl, nll, kl


def _param_dict(model: HeadModel) -> dict:
    out = model.output
    if model.is_bayesian:
        groups = {"mu": out.params.mu, "rho": out.params.rho}
    else:
        groups = {"out_w": out.weights, "out_b": out.bias}
    return {"hidden_w": model.hidden.weights, "hidden_b": model.hidden.bias, **groups}


def _assign_params(model: HeadModel, params: dict) -> None:
    model.hidden.weights = params["hidden_w"]
    model.hidden.bias = params["hidden_b"]
    if model.is_bayesian:
        model.output.params.mu = params["mu"]
        model.output.params.rho = params["rho"]
    else:
        model.output.weights = params["out_w"]
        model.output.bias = params["out_b"]


def _flatten_params(model: HeadModel):
    """Move the model's parameter groups into one contiguous float64 buffer, in ``_param_dict`` order.

    The model's arrays become reshaped views of the buffer, so an update written into it in place
    is the model's update.  Returns the buffer, the group names and each group's end offset.
    """
    groups = _param_dict(model)
    flat = np.concatenate([np.ravel(v) for v in groups.values()])
    ends = np.cumsum([v.size for v in groups.values()])
    views = {name: flat[end - v.size : end].reshape(v.shape) for (name, v), end in zip(groups.items(), ends)}
    _assign_params(model, views)
    return flat, list(groups), ends


class _NoiseBlock:
    """One epoch's normals, drawn in one call and read in place of the stream, as the steps' calls would.

    The stream is counter-based, so the reads have the bits of the per-step calls and the stream
    ends at the same counter.
    """

    def __init__(self, normals: np.ndarray):
        self._normals = normals
        self._next = 0

    def normal(self, n: int) -> np.ndarray:
        start, self._next = self._next, self._next + n
        return self._normals[start : self._next]


def validate_metrics(model: HeadModel, dataset: FeatureDataset) -> tuple[float, float]:
    """(accuracy, mean NLL) from a deterministic pass at the mean weights."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite metric raises NumericError in _train
        logits = mean_forward(model, dataset.features)
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
    flat, names, ends = _flatten_params(model)
    accum = np.zeros_like(flat)
    grad = np.empty_like(flat)
    buffers = StepBuffers(model, min(config.batch_size, len(dataset)))
    shuffle_stream = RngStream(config.seed).derive(_SHUFFLE_STREAM)
    eps_stream = RngStream(config.seed).derive(_EPS_STREAM)

    n = len(dataset)
    steps = math.ceil(n / config.batch_size)
    kl_w = kl_weight_for(config, n) if (bayesian and not config.force_sigma_zero) else 0.0
    epoch_block = bayesian and not config.force_sigma_zero  # steps * K normals, and n * C per example
    block = steps * len(model.output.params) + n * n_classes * config.per_example_sample if epoch_block else 0
    records: list[EpochRecord] = []
    best_epoch: int | None = None
    best_nll = math.inf
    best_flat: np.ndarray | None = None

    # a non-finite gradient or update raises NumericError below, so numpy need not warn of it first;
    # entered once per run, since an errstate entry and exit costs 1-2% of a step
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(config.epochs):
            order = shuffle_stream.permutation(n)
            noise = _NoiseBlock(eps_stream.normal(block)) if epoch_block else eps_stream
            epoch_nll = 0.0
            epoch_kl = 0.0
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                bs = idx.shape[0]  # "clip" never fires on a permutation and, unlike "raise", writes out directly
                feats = np.take(dataset.features, idx, axis=0, out=buffers.features[:bs], mode="clip")
                labels = np.take(dataset.labels, idx, out=buffers.labels[:bs], mode="clip")
                samples = _draw_samples(model, noise, bs, config.per_example_sample,
                                        force_zero=config.force_sigma_zero)
                grads = backward(model, feats, labels, samples, kl_w, buffers)
                np.concatenate([grads[name].ravel() for name in names], out=grad)
                rmsprop_step(flat, grad, accum, config.learning_rate)  # the model's arrays view flat
                if not np.isfinite(flat).all():  # a non-finite gradient spoils its update, so one check sees both
                    bad_grad = not np.isfinite(grad).all()
                    first = np.argmin(np.isfinite(grad if bad_grad else flat))
                    group = names[int(np.searchsorted(ends, first, side="right"))]
                    raise NumericError(f"non-finite {'gradient' if bad_grad else 'update'} in parameter group '{group}'")
                epoch_nll += grads.nll
                epoch_kl += kl_w * grads.kl
            val_acc, val_nll = validate_metrics(model, val)
            if not (math.isfinite(val_acc) and math.isfinite(val_nll)):
                # a NaN would never win the checkpoint comparison and freeze the best epoch silently
                raise NumericError(f"non-finite validation metric at epoch {epoch}: nll {val_nll}, accuracy {val_acc}")
            records.append(EpochRecord(epoch_nll + epoch_kl, epoch_nll, epoch_kl, val_acc, val_nll))
            if val_nll < best_nll:
                best_nll = val_nll
                best_epoch = epoch
                best_flat = flat.copy()

    if best_flat is not None:
        flat[:] = best_flat
    return model, TrainHistory(records, best_epoch)


def write_history_csv(history: TrainHistory, path, config: TrainConfig) -> None:
    """Emit the per-epoch metrics as CSV, config echoed in '#' comment lines."""
    best = {} if history.best_epoch is None else {"best_epoch": history.best_epoch}
    lines = echo_header(config.to_flat_dict(), **best)
    lines.append("epoch,train_loss,train_nll,train_kl,val_accuracy,val_nll")
    for i, r in enumerate(history.epochs):
        lines.append(
            f"{i},{r.train_loss!r},{r.train_nll!r},{r.train_kl!r},{r.val_accuracy!r},{r.val_nll!r}"
        )
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")

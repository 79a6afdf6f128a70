"""ELBO minimization for the bayesian head and cross-entropy training of
the deterministic baseline, sharing one RMSprop loop with best-weights
checkpointing on a validation metric.

Objective per step: summed batch NLL + kl_weight * KL_estimate, where
kl_weight is 1/num_batches, so a full epoch accumulates one KL term
(Blundell et al. 2015).  A step is one ``network.backward`` call, which
gives the summed NLL and the gradients from one forward pass and one pass
over the spike-and-slab prior (its log-pdf and score at the draw), one
RMSprop update and one finiteness check on the parameters.  The step's KL
value is not formed in the step: the step copies its draw, its scale and mu
before the update into a row of the run's KL store, and ``backward`` writes
log p into the same row; every ``KL_BLOCK`` steps, and at each epoch's end,
one ``kl_sample_estimate`` call forms every stored row's estimate, which the
epoch's ``train_kl`` adds, weighted, in step order, so the totals have the
bits of a KL per step.  Both heads use the identical update path, so
forcing sigma = 0 and dropping the KL reproduces the baseline bit for bit.
The baseline starts from ``init_bayes_model``'s draws, its output weights
the bayesian head's initial mu unflattened by the output layer; validation
runs ``network.mean_forward``, the logits path that training's passes use,
1024 rows at a time; and the checkpoint keeps the first epoch with the
lowest val_nll.

The parameter groups live as views in one contiguous buffer, and each run
makes one ``network.StepBuffers`` per batch size (the full batch and at most
one tail) from (rows, D, H, C, K), whose flat gradient ``grad`` has its
groups in the same order.  ``backward`` writes each group into its slot, so
the update is one in-place optimizer call over ``grad`` with no
concatenation, and the best-epoch checkpoint is one copy; elementwise
arithmetic gives the same bits as a call per group.  Every step gathers its
batch into the plan for its size and ``backward`` writes its intermediates
there, so what a step still allocates is its draw, the optimizer's
temporaries and a few small arrays.  Both bayesian heads draw an epoch's
noise in one ``normal`` call and read K normals per step, then B * C for the
per-example head's logit noise: the stream is counter-based, so the bits and
the final counter are those of draws per step.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .core import inv_softplus, log_softmax
from .data import FeatureDataset, atomic_write, write_csv
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
from .rng import RngStream, check_seed

# derive keys off the run's root stream; fixed so reruns are bit-identical
_INIT_STREAM = 0
_SHUFFLE_STREAM = 1
_EPS_STREAM = 2
KL_BLOCK = 64  # steps whose KL values one kl_sample_estimate call forms

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
        check_seed(self.seed)

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
    return type(default)(raw)


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
    """The He-initialized relu hidden layer and the output mu (H * C weights, then C biases), from
    substreams 0 and 1 of the run's init stream; the posterior scale starts at ``_INIT_SIGMA``."""
    root = RngStream(config.seed).derive(_INIT_STREAM)
    w = root.derive(0).normal(feature_dim * config.hidden_dim).reshape(feature_dim, config.hidden_dim)
    hidden = DenseLayer(w * math.sqrt(2.0 / feature_dim), np.zeros(config.hidden_dim))
    mu = root.derive(1).normal(config.hidden_dim * n_classes + n_classes) * _INIT_MU_SIGMA
    rho = np.full(len(mu), float(inv_softplus(_INIT_SIGMA)))
    output = VariationalDenseLayer(VariationalParams(mu, rho), config.prior, config.hidden_dim, n_classes)
    return HeadModel(hidden, output)


def init_baseline_model(feature_dim: int, n_classes: int, config: TrainConfig) -> HeadModel:
    """The bayesian head's initial draws, its output mu as the point output weights."""
    bayes = init_bayes_model(feature_dim, n_classes, config)
    return HeadModel(bayes.hidden, DenseLayer(*bayes.output.unflatten(bayes.output.params.mu)))


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


def block_kl(store: np.ndarray, m: int, prior: SpikeSlabPrior) -> list[float]:
    """The KL estimates of the first ``m`` rows of a run's (4, KL_BLOCK, K) KL store, in row order,
    from one ``kl_sample_estimate`` call; each has the bits of the call on its row alone."""
    theta, mu, sigma, log_p = store[:, :m]
    return kl_sample_estimate(theta, mu, sigma, prior, log_p).tolist()


def _elbo_parts(model, features, labels, samples, kl_weight):
    """(loss, nll, kl) of one batch; the reference loss that ``backward``'s loss parts equal."""
    nll = batch_nll(batch_forward(model, features, samples), labels)
    if model.is_bayesian and samples is not None and kl_weight != 0.0:
        kl = float(kl_sample_estimate(samples.theta, model.output.params.mu, samples.sigma, model.output.prior))
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
    n = len(dataset)  # np.mean's sum / count, without its wrapper
    acc = float(np.add.reduce(logits.argmax(axis=1) == dataset.labels, axis=None, dtype=np.float64) / n)
    nll = float(-(np.add.reduce(logp[np.arange(n), dataset.labels], axis=None) / n))
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
    shuffle_stream = RngStream(config.seed).derive(_SHUFFLE_STREAM)
    eps_stream = RngStream(config.seed).derive(_EPS_STREAM)

    n = len(dataset)
    steps = math.ceil(n / config.batch_size)
    # one plan per batch size, the full batch and the last; backward's gradient groups are views of
    # a plan's grad, in the order of flat's groups
    plans = {rows: StepBuffers(model, rows)
             for rows in (min(config.batch_size, n), n - (steps - 1) * config.batch_size)}
    kl_w = kl_weight_for(config, n) if (bayesian and not config.force_sigma_zero) else 0.0
    # the KL store: a step with a KL term stores its draw theta, mu before the update, the sigma it
    # was drawn at and (through backward) log p(theta) in a row, kl_sample_estimate's argument order
    store = np.empty((4, KL_BLOCK, len(model.output.params))) if kl_w else None
    store_rows = list(zip(*store)) if kl_w else []  # a row's four views, made once

    def add_kl(total: float, m: int) -> float:
        """``total`` plus kl_w times the KL estimate of each of the store's first m rows, in step order."""
        for kl in block_kl(store, m, model.output.prior):
            total += kl_w * kl
        return total
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
            m = 0  # rows in the KL store
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                plan = plans[idx.shape[0]]
                # "clip" never fires on a permutation and, unlike "raise", writes out directly; the array
                # method skips numpy.take's Python wrapper, which costs more than a 32-row gather
                feats = dataset.features.take(idx, axis=0, out=plan.features, mode="clip")
                labels = dataset.labels.take(idx, out=plan.labels, mode="clip")
                samples = _draw_samples(model, noise, idx.shape[0], config.per_example_sample,
                                        force_zero=config.force_sigma_zero)
                log_p = None
                if kl_w:
                    theta, mu, sigma, log_p = store_rows[m]
                    theta[...], mu[...], sigma[...] = samples.theta, model.output.params.mu, samples.sigma
                    m += 1
                grads = backward(model, feats, labels, samples, kl_w, plan, log_p)  # written into plan.grad
                rmsprop_step(flat, plan.grad, accum, config.learning_rate)  # the model's arrays view flat
                # a non-finite gradient spoils its update, so one check sees both; a finite sum has finite
                # terms, so only a sum that is not looks at each one
                if not math.isfinite(np.add.reduce(flat)) and not np.isfinite(flat).all():
                    bad_grad = not np.isfinite(plan.grad).all()
                    first = np.argmin(np.isfinite(plan.grad if bad_grad else flat))
                    group = names[int(np.searchsorted(ends, first, side="right"))]
                    raise NumericError(f"non-finite {'gradient' if bad_grad else 'update'} in parameter group '{group}'")
                epoch_nll += grads.nll
                if m == KL_BLOCK:
                    epoch_kl, m = add_kl(epoch_kl, m), 0
            if m:
                epoch_kl = add_kl(epoch_kl, m)
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
    with atomic_write(path) as fh:
        write_csv(fh, ["epoch", *(f.name for f in fields(EpochRecord))],
                  ((i, *astuple(r)) for i, r in enumerate(history.epochs)), config.to_flat_dict(), **best)

"""Classification head: a relu hidden layer feeding a linear output layer,
variational (bayesian variant) or with point weights (baseline).
``_output_weights`` is the one rule for the output weights a pass uses and
``_forward`` the one place that forms logits from them; the ``*_forward``
entry points and ``backward``, a training step's one pass (the summed
cross-entropy, the KL estimate and the hand-derived gradients of their
weighted sum), all go through the pair.  ``backward`` takes the prior's
score from the KL estimate's own pass over the mixture prior, so a step
evaluates the prior once."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import log_softmax, sigmoid
from .distributions import (
    SpikeSlabPrior,
    VariationalParams,
    WeightSample,
    kl_sample_estimate,
    mean_sample,
    sample_weights,
)
from .errors import NumericError, VariantError
from .rng import RngStream

_LOG_CLAMP = float(np.log(1e-300))
_ROW_BLOCK = 1024  # rows per block of a large mean_forward


@dataclass
class DenseLayer:
    """Point weights: the hidden layer, which ``dense_forward`` applies relu to, or the baseline's linear output."""

    weights: np.ndarray  # (in_dim, out_dim)
    bias: np.ndarray  # (out_dim,)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[1],):
            raise ValueError("weights must be (in_dim, out_dim) with a matching bias")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("layer parameters must be finite")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[1]


@dataclass
class VariationalDenseLayer:
    """Dense layer whose flattened weights-then-biases carry a posterior."""

    params: VariationalParams
    prior: SpikeSlabPrior
    in_dim: int
    out_dim: int

    def __post_init__(self):
        expect = self.in_dim * self.out_dim + self.out_dim
        if len(self.params) != expect:
            raise ValueError(
                f"parameter vector length {len(self.params)} != in*out+out = {expect}"
            )

    def unflatten(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(W, b) from theta (..., K); leading axes index stacked draws."""
        split = self.in_dim * self.out_dim
        w = theta[..., :split].reshape(*theta.shape[:-1], self.in_dim, self.out_dim)
        return w, theta[..., split:]


@dataclass
class HeadModel:
    hidden: DenseLayer
    output: Union[DenseLayer, VariationalDenseLayer]

    def __post_init__(self):
        if self.hidden.out_dim != self.output.in_dim:
            raise ValueError("the hidden layer's width differs from the output layer's input width")

    @property
    def is_bayesian(self) -> bool:
        return isinstance(self.output, VariationalDenseLayer)

    @property
    def variant(self) -> str:
        return "bayesian" if self.is_bayesian else "baseline"

    @property
    def feature_dim(self) -> int:
        return self.hidden.in_dim

    @property
    def hidden_dim(self) -> int:
        return self.hidden.out_dim

    @property
    def n_classes(self) -> int:
        return self.output.out_dim


def dense_forward(layer: DenseLayer, x) -> np.ndarray:
    """The hidden layer's relu(x @ W + b); accepts a single vector or a batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != layer.in_dim:
        raise ValueError(f"input width {x.shape[-1]} != layer in_dim {layer.in_dim}")
    z = x @ layer.weights
    z += layer.bias  # the product is fresh, so the bias and relu go in place
    np.maximum(z, 0.0, out=z)
    return z


def bayes_forward(model: HeadModel, x, stream: RngStream) -> tuple[np.ndarray, WeightSample]:
    """One stochastic forward pass under a fresh posterior draw."""
    if not model.is_bayesian:
        raise VariantError("bayes_forward requires the bayesian variant")
    sample = sample_weights(model.output.params, stream)
    return batch_forward(model, x, sample), sample


def mean_forward(model: HeadModel, x) -> np.ndarray:
    """Deterministic logits: posterior-mean weights for the bayesian variant.

    A batch of more than ``_ROW_BLOCK`` rows goes through in blocks of that
    many, so a large set's hidden outputs never all live at once.  A
    one-row tail joins the block before it: numpy multiplies a single row by
    another BLAS routine (gemv), which can give other bits.
    """
    w, b = _output_weights(model, mean_sample(model.output.params) if model.is_bayesian else None)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or len(x) <= _ROW_BLOCK:
        return _forward(model, x, w, b)[1]
    bounds = [*range(0, len(x) - 1, _ROW_BLOCK), len(x)]
    logits = np.empty((len(x), w.shape[1]))
    for lo, hi in zip(bounds, bounds[1:]):
        logits[lo:hi] = _forward(model, x[lo:hi], w, b)[1]
    return logits


def batch_forward(model: HeadModel, features: np.ndarray, sample=None) -> np.ndarray:
    """Batch logits under a given weight sample (or point weights).

    ``sample`` is a shared WeightSample, a per-example stack (B, K), or
    None for the baseline variant.
    """
    return _forward(model, features, *_output_weights(model, sample))[1]


def _output_weights(model: HeadModel, sample) -> tuple[np.ndarray, np.ndarray]:
    """The output layer's (w, b): the baseline's point weights, or the bayesian draw ``sample``
    unflattened, (H, C) and (C,) for a shared draw or (B, H, C) and (B, C) for a per-row stack."""
    if not model.is_bayesian:
        return model.output.weights, model.output.bias
    if sample is None:
        raise VariantError("bayesian variant needs one shared weight sample or one per batch row")
    return model.output.unflatten(sample.theta)


def _forward(model: HeadModel, x, w, b) -> tuple[np.ndarray, np.ndarray]:
    """(h, logits): h @ w + b for shared weights (H, C); for a stack (B, H, C),
    row i against its own w[i], b[i]."""
    h = dense_forward(model.hidden, x)
    if w.ndim == 2:
        return h, h @ w + b
    if w.shape[0] != h.shape[0]:
        raise ValueError("per-example samples must match the batch size")
    return h, np.einsum("bh,bhc->bc", h, w) + b


def batch_nll(logits: np.ndarray, labels: np.ndarray) -> float:
    """Summed negative log-likelihood of the true classes.

    Probabilities below 1e-300 are clamped with a warning rather than
    failing; a non-finite log-likelihood raises NumericError naming the
    batch index.
    """
    labels = np.asarray(labels)
    return _summed_nll(log_softmax(logits)[np.arange(labels.shape[0]), labels])


def _summed_nll(picked: np.ndarray) -> float:
    """-sum of the true classes' log-probabilities, with ``batch_nll``'s checks."""
    finite = np.isfinite(picked)
    if not np.all(finite):
        raise NumericError(f"non-finite log-likelihood at batch index {int(np.argmin(finite))}")
    if np.any(picked < _LOG_CLAMP):
        warnings.warn("class probability below 1e-300 clamped", RuntimeWarning)
        picked = np.maximum(picked, _LOG_CLAMP)
    return float(-np.sum(picked))


class Gradients(dict):
    """Gradients keyed by parameter group, plus the loss parts of the pass that made them:
    ``nll``, the batch's summed NLL, and ``kl``, the unweighted KL estimate."""

    def __init__(self, groups: dict, nll: float, kl: float):
        super().__init__(groups)
        self.nll = nll
        self.kl = kl


def backward(model: HeadModel, features, labels, samples: WeightSample | None, kl_weight: float) -> Gradients:
    """A training step's one pass: gradients of summed NLL + kl_weight * KL_estimate from one forward pass.

    Keyed by parameter group: hidden_w / hidden_b plus mu / rho (bayesian) or out_w / out_b
    (baseline); ``.nll`` and ``.kl`` are the loss parts, with the bits of ``training._elbo_parts``.
    ``samples`` is one shared draw per batch, or a (B, K) stack of one draw per row, whose
    gradients are summed; a bayesian head without one raises VariantError.  A non-finite NLL
    raises NumericError naming the batch index; ``training._train`` checks the gradients'
    finiteness once per step, before the update.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise ValueError("features must be (batch, dim) matching labels")
    w, b = _output_weights(model, samples)
    h, logits = _forward(model, features, w, b)
    logp = log_softmax(logits)
    rows = np.arange(labels.shape[0])
    nll = _summed_nll(logp[rows, labels])
    g = np.exp(logp)
    g[rows, labels] -= 1.0
    if w.ndim == 2:
        g_w = h.T @ g
        g_b = g.sum(axis=0)
        dh = g @ w.T
    else:  # per-example: the output gradients stay per row, (B, H, C) and (B, C)
        g_w = h[:, :, None] * g[:, None, :]
        g_b = g
        dh = np.einsum("bhc,bc->bh", w, g)
    dh = dh * (h > 0.0)
    g_w1 = features.T @ dh
    g_b1 = dh.sum(axis=0)
    if not model.is_bayesian:
        return Gradients({"hidden_w": g_w1, "hidden_b": g_b1, "out_w": g_w, "out_b": g_b}, nll, 0.0)

    params = model.output.params
    per_example = samples.theta.ndim == 2
    sig_prime = sigmoid(params.rho)
    g_theta = np.concatenate([g_w.reshape(g_b.shape[:-1] + (-1,)), g_b], axis=-1)
    g_rho = g_theta * samples.epsilon * sig_prime
    g_mu = g_theta  # fresh from the concatenate, so the KL term can go in place once g_rho is formed
    kl = 0.0
    if kl_weight != 0.0:
        kl, score = kl_sample_estimate(params, model.output.prior, samples)
        # pathwise gradients of log q - log p: with theta = mu + sigma*eps, log q is -sum(log sigma)
        # + const, so only the prior's score flows through mu; per example, the KL averages the draws
        kl_scale = kl_weight / features.shape[0] if per_example else kl_weight
        g_mu += kl_scale * -score
        g_rho += kl_scale * (-sig_prime / samples.sigma - score * samples.epsilon * sig_prime)
    if per_example:
        g_mu, g_rho = g_mu.sum(axis=0), g_rho.sum(axis=0)
    return Gradients({"hidden_w": g_w1, "hidden_b": g_b1, "mu": g_mu, "rho": g_rho}, nll, kl)

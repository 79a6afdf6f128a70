"""Classification head: a dense hidden layer feeding either a variational
output layer (bayesian variant) or a point-weight output layer (baseline).
``backward`` is a training step's one pass: the summed cross-entropy, the KL
estimate and the hand-derived gradients of their weighted sum, from one forward pass."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import log_softmax, sigmoid
from .distributions import (
    SpikeSlabPrior,
    VariationalParams,
    WeightSample,
    kl_sample_estimate,
    sample_weights,
    spike_slab_score,
    stack_samples,
)
from .errors import NumericError, VariantError
from .rng import RngStream

_LOG_CLAMP = float(np.log(1e-300))

_ACTIVATIONS = ("relu", "identity")


@dataclass
class DenseLayer:
    weights: np.ndarray  # (in_dim, out_dim)
    bias: np.ndarray  # (out_dim,)
    activation: str = "identity"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[1],):
            raise ValueError("weights must be (in_dim, out_dim) with a matching bias")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
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
    n_classes: int

    def __post_init__(self):
        out_in = self.output.in_dim
        out_out = self.output.out_dim
        if self.hidden.out_dim != out_in or out_out != self.n_classes:
            raise ValueError("layer dimensions do not chain to n_classes")

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


def dense_forward(layer: DenseLayer, x) -> np.ndarray:
    """activation(x @ W + b); accepts a single vector or a batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != layer.in_dim:
        raise ValueError(f"input width {x.shape[-1]} != layer in_dim {layer.in_dim}")
    z = x @ layer.weights + layer.bias
    if layer.activation == "relu":
        return np.maximum(z, 0.0)
    return z


def bayes_forward(model: HeadModel, x, stream: RngStream) -> tuple[np.ndarray, WeightSample]:
    """One stochastic forward pass under a fresh posterior draw."""
    if not model.is_bayesian:
        raise VariantError("bayes_forward requires the bayesian variant")
    h = dense_forward(model.hidden, x)
    sample = sample_weights(model.output.params, stream)
    w, b = model.output.unflatten(sample.theta)
    return h @ w + b, sample


def mean_forward(model: HeadModel, x) -> np.ndarray:
    """Deterministic logits: posterior-mean weights for the bayesian variant."""
    h = dense_forward(model.hidden, x)
    if model.is_bayesian:
        w, b = model.output.unflatten(model.output.params.mu)
        return h @ w + b
    return dense_forward(model.output, h)


def batch_forward(model: HeadModel, features: np.ndarray, sample=None) -> np.ndarray:
    """Batch logits under a given weight sample (or point weights).

    ``sample`` is a shared WeightSample, a per-example stack (B, K) or
    sequence of them, or None for the baseline variant.
    """
    h = dense_forward(model.hidden, features)
    if not model.is_bayesian:
        return dense_forward(model.output, h)
    if sample is None:
        raise VariantError("bayesian variant needs a weight sample")
    w, b = model.output.unflatten(stack_samples(sample).theta)
    return _output_logits(h, w, b)


def _output_logits(h, w, b):
    """h @ w + b for shared weights (H, C); row i against its own w[i], b[i] for a stack (B, H, C)."""
    if w.ndim == 2:
        return h @ w + b
    if w.shape[0] != h.shape[0]:
        raise ValueError("per-example samples must match the batch size")
    return np.einsum("bh,bhc->bc", h, w) + b


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


Samples = Union[WeightSample, Sequence[WeightSample], None]


def backward(model: HeadModel, features, labels, samples: Samples, kl_weight: float) -> Gradients:
    """A training step's one pass: gradients of summed NLL + kl_weight * KL_estimate from one forward pass.

    Keyed by parameter group: hidden_w / hidden_b plus mu / rho (bayesian) or out_w / out_b
    (baseline); ``.nll`` and ``.kl`` are the loss parts, with the bits of ``training._elbo_parts``.
    ``samples`` is one shared draw per batch, or one draw per row: a (B, K) stack or a sequence
    of draws, whose gradients are summed.  A non-finite NLL raises NumericError naming the batch
    index; the gradients' finiteness is the optimizer step's one check.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise ValueError("features must be (batch, dim) matching labels")
    if model.is_bayesian:
        samples = stack_samples(samples)
        if samples is None:
            raise ValueError("need one shared sample or one sample per batch row")
        w, b = model.output.unflatten(samples.theta)
    else:
        w, b = model.output.weights, model.output.bias

    h = dense_forward(model.hidden, features)
    logp = log_softmax(_output_logits(h, w, b))
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
    if model.hidden.activation == "relu":
        dh = dh * (h > 0.0)
    g_w1 = features.T @ dh
    g_b1 = dh.sum(axis=0)
    if not model.is_bayesian:
        return Gradients({"hidden_w": g_w1, "hidden_b": g_b1, "out_w": g_w, "out_b": g_b}, nll, 0.0)

    params = model.output.params
    per_example = samples.theta.ndim == 2
    sig_prime = sigmoid(params.rho)
    g_theta = np.concatenate([g_w.reshape(g_b.shape[:-1] + (-1,)), g_b], axis=-1)
    g_mu = g_theta.copy()
    g_rho = g_theta * samples.epsilon * sig_prime
    kl = 0.0
    if kl_weight != 0.0:
        kl = kl_sample_estimate(params, model.output.prior, samples)
        # pathwise gradients of log q - log p: with theta = mu + sigma*eps, log q is -sum(log sigma)
        # + const, so only the prior's score flows through mu; per example, the KL averages the draws
        kl_scale = kl_weight / features.shape[0] if per_example else kl_weight
        score = spike_slab_score(samples.theta, model.output.prior)
        g_mu += kl_scale * -score
        g_rho += kl_scale * (-sig_prime / samples.sigma - score * samples.epsilon * sig_prime)
    if per_example:
        g_mu, g_rho = g_mu.sum(axis=0), g_rho.sum(axis=0)
    return Gradients({"hidden_w": g_w1, "hidden_b": g_b1, "mu": g_mu, "rho": g_rho}, nll, kl)

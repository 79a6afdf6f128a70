"""Classification head: a dense hidden layer feeding either a variational
output layer (bayesian variant) or a point-weight output layer (baseline),
with a hand-written reverse-mode backward pass for the summed
cross-entropy plus weighted KL objective."""

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
    picked = log_softmax(logits)[np.arange(labels.shape[0]), labels]
    finite = np.isfinite(picked)
    if not np.all(finite):
        raise NumericError(f"non-finite log-likelihood at batch index {int(np.argmin(finite))}")
    if np.any(picked < _LOG_CLAMP):
        warnings.warn("class probability below 1e-300 clamped", RuntimeWarning)
        picked = np.maximum(picked, _LOG_CLAMP)
    return float(-np.sum(picked))


def _nll_param_grads(model, features, labels, w, b):
    """Gradients of the summed NLL w.r.t. hidden params and output (W, b).

    For per-example weights w (B, H, C), b (B, C) the output gradients
    stay per row, (B, H, C) and (B, C); the hidden ones are summed.
    """
    z1 = features @ model.hidden.weights + model.hidden.bias
    h = np.maximum(z1, 0.0) if model.hidden.activation == "relu" else z1
    logits = _output_logits(h, w, b)
    probs = np.exp(log_softmax(logits))
    g = probs.copy()
    g[np.arange(labels.shape[0]), labels] -= 1.0
    if w.ndim == 2:
        g_w = h.T @ g
        g_b = g.sum(axis=0)
        dh = g @ w.T
    else:
        g_w = h[:, :, None] * g[:, None, :]
        g_b = g
        dh = np.einsum("bhc,bc->bh", w, g)
    if model.hidden.activation == "relu":
        dh = dh * (z1 > 0.0)
    g_w1 = features.T @ dh
    g_b1 = dh.sum(axis=0)
    return g_w1, g_b1, g_w, g_b


def _kl_param_grads(params: VariationalParams, prior: SpikeSlabPrior, sample: WeightSample):
    """Pathwise gradients of log q(theta) - log p(theta) w.r.t. (mu, rho).

    With theta = mu + sigma*eps, log q reduces to -sum(log sigma) + const,
    so only the prior's score flows through mu.  A stack of draws (B, K)
    gives one row of gradients per draw.
    """
    sigma = params.sigma
    sig_prime = sigmoid(params.rho)
    score = spike_slab_score(sample.theta, prior)
    g_mu = -score
    g_rho = -sig_prime / sigma - score * sample.epsilon * sig_prime
    return g_mu, g_rho


Samples = Union[WeightSample, Sequence[WeightSample], None]


def backward(model: HeadModel, features, labels, samples: Samples, kl_weight: float) -> dict:
    """Gradients of summed NLL + kl_weight * KL_estimate for all trainables.

    Returns a dict keyed by parameter group: hidden_w / hidden_b plus
    mu / rho (bayesian) or out_w / out_b (baseline).  ``samples`` is one
    shared draw per batch, or one draw per row: a (B, K) stack or a
    sequence of draws.  Per-example rows' gradients are summed over the batch.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise ValueError("features must be (batch, dim) matching labels")

    if not model.is_bayesian:
        g_w1, g_b1, g_w, g_b = _nll_param_grads(
            model, features, labels, model.output.weights, model.output.bias
        )
        grads = {"hidden_w": g_w1, "hidden_b": g_b1, "out_w": g_w, "out_b": g_b}
        return _checked(grads, features, labels, model, None)

    samples = stack_samples(samples)
    if samples is None:
        raise ValueError("need one shared sample or one sample per batch row")
    per_example = samples.theta.ndim == 2
    params = model.output.params
    w, b = model.output.unflatten(samples.theta)
    g_w1, g_b1, g_w, g_b = _nll_param_grads(model, features, labels, w, b)
    g_theta = np.concatenate([g_w.reshape(g_b.shape[:-1] + (-1,)), g_b], axis=-1)
    g_mu = g_theta.copy()
    g_rho = g_theta * samples.epsilon * sigmoid(params.rho)
    if kl_weight != 0.0:
        # per example, the KL estimate averages over the batch's draws
        kl_scale = kl_weight / features.shape[0] if per_example else kl_weight
        kmu, krho = _kl_param_grads(params, model.output.prior, samples)
        g_mu += kl_scale * kmu
        g_rho += kl_scale * krho
    if per_example:
        g_mu, g_rho = g_mu.sum(axis=0), g_rho.sum(axis=0)
    grads = {"hidden_w": g_w1, "hidden_b": g_b1, "mu": g_mu, "rho": g_rho}
    return _checked(grads, features, labels, model, samples)


def _checked(grads: dict, features, labels, model, samples) -> dict:
    # surfacing the failing example index takes a loss evaluation; cheap here
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            batch_nll(batch_forward(model, features, samples), labels)
            raise NumericError(f"non-finite gradient in parameter group '{name}'")
    return grads

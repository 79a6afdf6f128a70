"""Classification head: a relu hidden layer feeding a linear output layer,
variational (bayesian variant) or with point weights (baseline).
``_output_weights`` is the one rule for the output weights a pass uses and
``_forward`` the one place that forms logits from them; the ``*_forward``
entry points and ``backward``, a training step's one pass (the summed
cross-entropy, the KL estimate and the hand-derived gradients of their
weighted sum), all go through the pair.  A per-example draw is taken in
logit space (Kingma, Salimans & Welling 2015), with 2-D products only.
``backward`` takes the prior's score from the KL estimate's own pass over
the mixture prior, so a step evaluates the prior once.  A run hands it one
``StepBuffers``, sized once, and each step writes its intermediates and
gradients there with ``out=`` (a tail batch in the leading rows), so the
gradients of a buffered call are views that the next call overwrites; a
call without buffers makes its own, and what it returns shares no memory."""

from __future__ import annotations

import math
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


def dense_forward(layer: DenseLayer, x, out=None) -> np.ndarray:
    """The hidden layer's relu(x @ W + b); accepts a single vector or a batch. ``out`` as in numpy."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != layer.in_dim:
        raise ValueError(f"input width {x.shape[-1]} != layer in_dim {layer.in_dim}")
    z = np.matmul(x, layer.weights, out=out)
    z += layer.bias  # the product is fresh or ``out``, so the bias and relu go in place
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

    ``sample`` is a WeightSample, shared by the batch or per-example (with
    ``logit_noise``), or None for the baseline variant.
    """
    return _forward(model, features, *_output_weights(model, sample), sample)[1]


def _output_weights(model: HeadModel, sample) -> tuple[np.ndarray, np.ndarray]:
    """The output layer's (w, b), (H, C) and (C,): the baseline's point weights, the bayesian draw
    ``sample`` unflattened, or, for a per-example draw, the posterior mean its logits are drawn around."""
    if not model.is_bayesian:
        return model.output.weights, model.output.bias
    if sample is None:
        raise VariantError("bayesian variant needs a weight sample")
    return model.output.unflatten(sample.theta if sample.logit_noise is None else model.output.params.mu)


def _forward(model: HeadModel, x, w, b, sample=None, out=(None, None)):
    """(h, logits, spread), h and the logits written to ``out`` if given: logits = h @ w + b, plus
    s * e for a per-example ``sample``, whose rows then have the law of a weight draw per row (the
    output layer is linear and its posterior factorized): e is its ``logit_noise`` and
    s = sqrt((h*h) @ sigma_w² + sigma_b²), and ``spread`` is (h*h, sigma_w², s), else None."""
    h = dense_forward(model.hidden, x, out=out[0])
    logits = np.matmul(h, w, out=out[1])
    logits += b
    if sample is None or sample.logit_noise is None:
        return h, logits, None
    if sample.logit_noise.shape != logits.shape:
        raise ValueError("logit noise must be (batch rows, classes)")
    var_w, var_b = model.output.unflatten(sample.sigma * sample.sigma)
    s = np.sqrt((h2 := h * h) @ var_w + var_b)
    logits += s * sample.logit_noise
    return h, logits, (h2, var_w, s)


def batch_nll(logits: np.ndarray, labels: np.ndarray) -> float:
    """Summed negative log-likelihood of the true classes.

    Probabilities below 1e-300 are clamped with a warning rather than
    failing; a non-finite log-likelihood raises NumericError naming the
    batch index.
    """
    labels = np.asarray(labels)
    return _summed_nll(log_softmax(logits)[np.arange(labels.shape[0]), labels])


def _summed_nll(picked: np.ndarray) -> float:
    """-sum of the true classes' log-probabilities, with ``batch_nll``'s checks; a finite sum
    has finite terms, so only a non-finite one looks for the bad row."""
    total = picked.sum()
    if not math.isfinite(total) and not (finite := np.isfinite(picked)).all():
        raise NumericError(f"non-finite log-likelihood at batch index {int(np.argmin(finite))}")
    if picked.min(initial=0.0) < _LOG_CLAMP:
        warnings.warn("class probability below 1e-300 clamped", RuntimeWarning)
        total = np.maximum(picked, _LOG_CLAMP).sum()
    return float(-total)


class Gradients(dict):
    """Gradients keyed by parameter group, plus the loss parts of the pass that made them:
    ``nll``, the batch's summed NLL, and ``kl``, the unweighted KL estimate."""

    def __init__(self, groups: dict, nll: float, kl: float):
        super().__init__(groups)
        self.nll = nll
        self.kl = kl


class StepBuffers:
    """One training run's step arrays, sized once for batches of up to ``rows`` rows: the gathered
    batch, every intermediate of ``backward`` and the gradients it returns.  A smaller batch uses
    the leading rows of each."""

    def __init__(self, model: HeadModel, rows: int):
        d, hid, c = model.feature_dim, model.hidden_dim, model.n_classes
        self.features, self.labels, self.rows = np.empty((rows, d)), np.empty(rows, np.int64), np.arange(rows)
        self.h, self.dh = np.empty((2, rows, hid))
        self.active = np.empty((rows, hid), dtype=bool)
        self.logits, self.logp, self.g = np.empty((3, rows, c))
        self.hidden_w, self.hidden_b = np.empty((d, hid)), np.empty(hid)
        if model.is_bayesian:  # kl_work: kl_sample_estimate's four arrays
            k = len(model.output.params)
            self.sig_prime, self.sig_ratio, self.g_theta, self.g_rho, *self.kl_work = np.empty((8, k))
        else:
            self.out_w, self.out_b = np.empty((hid, c)), np.empty(c)


def backward(model: HeadModel, features, labels, samples: WeightSample | None, kl_weight: float,
             buffers: StepBuffers | None = None) -> Gradients:
    """A training step's one pass: gradients of summed NLL + kl_weight * KL_estimate from one forward pass.

    Keyed by parameter group: hidden_w / hidden_b plus mu / rho (bayesian) or out_w / out_b
    (baseline); ``.nll`` and ``.kl`` are the loss parts, with the bits of ``training._elbo_parts``.
    ``samples`` is one draw, shared or per-example (its theta then enters only the KL); a bayesian
    head without one raises VariantError.  A non-finite NLL raises NumericError naming the batch
    index; ``training._train`` checks finiteness once per step, after the update.  Every
    intermediate but a per-example draw's few (B, C) and (B, H) terms goes to ``buffers``, sized for
    at least this batch, so the gradients of a buffered call are views of it, overwritten by the
    next call; without ``buffers`` the call makes its own, and its gradients share no memory.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise ValueError("features must be (batch, dim) matching labels")
    w, b = _output_weights(model, samples)
    n = features.shape[0]
    buf = StepBuffers(model, n) if buffers is None else buffers
    rows = buf.rows[:n]
    h, logits, spread = _forward(model, features, w, b, samples, (buf.h[:n], buf.logits[:n]))
    logp = log_softmax(logits, out=buf.logp[:n])
    nll = _summed_nll(logp[rows, labels])
    g = np.exp(logp, out=buf.g[:n])
    g[rows, labels] -= 1.0
    # a bayesian head's output gradients go straight into g_theta, flattened as theta is
    g_w, g_b = model.output.unflatten(buf.g_theta) if model.is_bayesian else (buf.out_w, buf.out_b)
    np.matmul(h.T, g, out=g_w)
    g.sum(axis=0, out=g_b)
    dh = np.matmul(g, w.T, out=buf.dh[:n])
    if spread is not None:  # s's terms, with u = g * e / s: d/dsigma = sigma * ((h*h)^T u, sum of u)
        h2, var_w, s = spread
        u = g * samples.logit_noise / s
        g_sw, g_sb = model.output.unflatten(buf.g_rho)
        np.matmul(h2.T, u, out=g_sw)
        u.sum(axis=0, out=g_sb)
        buf.g_rho *= samples.sigma
        dh += h * (u @ var_w.T)
    dh *= np.greater(h, 0.0, out=buf.active[:n])
    g_w1 = np.matmul(features.T, dh, out=buf.hidden_w)
    g_b1 = dh.sum(axis=0, out=buf.hidden_b)
    if not model.is_bayesian:
        return Gradients({"hidden_w": g_w1, "hidden_b": g_b1, "out_w": g_w, "out_b": g_b}, nll, 0.0)

    params = model.output.params
    sig_prime = sigmoid(params.rho, out=buf.sig_prime)
    g_rho = buf.g_rho  # formed above for a per-example draw
    if spread is None:  # a shared draw's theta = mu + sigma * eps carries the NLL
        np.multiply(buf.g_theta, samples.epsilon, out=g_rho)
    g_rho *= sig_prime
    g_mu = buf.g_theta  # g_rho is formed, so the KL term can go into g_theta in place
    kl = 0.0
    if kl_weight != 0.0:
        kl, score = kl_sample_estimate(params, model.output.prior, samples, buf.kl_work)
        # pathwise gradients of log q - log p: with theta = mu + sigma*eps, log q is -sum(log sigma)
        # + const, so only the prior's score flows through mu
        g_mu -= np.multiply(score, kl_weight, out=buf.kl_work[0])  # g_mu += kl_weight * -score: negation is exact
        ratio = np.divide(np.negative(sig_prime, out=buf.sig_ratio), samples.sigma, out=buf.sig_ratio)
        score *= samples.epsilon  # kl_weight * (-sig_prime / sigma - score * eps * sig_prime), in score
        score *= sig_prime
        g_rho += np.multiply(np.subtract(ratio, score, out=score), kl_weight, out=score)
    return Gradients({"hidden_w": g_w1, "hidden_b": g_b1, "mu": g_mu, "rho": g_rho}, nll, kl)

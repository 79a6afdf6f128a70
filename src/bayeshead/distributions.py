"""Spike-and-slab prior, mean-field posterior, and the Monte Carlo KL.

The prior over each scalar weight is a zero-mean two-component Gaussian
mixture: a wide "slab" permitting large weights and a narrow "spike"
concentrating mass near zero.  The posterior is a fully factorized
Gaussian with per-weight mean mu and scale sigma = softplus(rho).  The
KL from posterior to a mixture prior has no closed form, so it is
estimated by Monte Carlo over reparameterized draws
theta = mu + sigma * eps, eps ~ N(0, I).  ``kl_sample_estimate`` is the one
KL formula: one estimate per draw, for a stack of draws that may each carry
their own mu and sigma, from log p(theta) that a caller's pass over the prior
already formed or that it forms itself.  A training step runs only
``_log_pdf_and_score``, the prior's log-pdf and score from one pass over the
mixture terms, since its gradient needs the score; the run forms the steps'
KL values later, a block of steps per call.  That pass forms the slab and
spike terms as one (2, K) stack, against the prior's constants kept as whole
(2, K) rows per prior and width, so each ufunc call covers both components.
``_log_pdf_and_score`` and ``_mixture_log_terms`` take ``out=`` arrays for
every intermediate, so a step's prior pass allocates nothing; training copies
the step's draw into its KL-store row.  Each docstring gives the shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import softplus
from .rng import RngStream

_LOG_2PI = float(np.log(2.0 * np.pi))
_NEG_HALF_LOG_2PI = -0.5 * _LOG_2PI


@dataclass(frozen=True)
class SpikeSlabPrior:
    """Mixture weight applies to the slab: p = pi*N(0, slab^2) + (1-pi)*N(0, spike^2)."""

    mix_weight: float = 0.5
    slab_sigma: float = 1.0
    spike_sigma: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.mix_weight <= 1.0:
            raise ValueError(f"mix_weight must lie in [0, 1], got {self.mix_weight}")
        for name in ("slab_sigma", "spike_sigma"):
            if not 0.0 < getattr(self, name) < np.inf:  # NaN fails it too
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.spike_sigma > self.slab_sigma:
            raise ValueError(
                f"spike_sigma ({self.spike_sigma}) must not exceed slab_sigma ({self.slab_sigma})"
            )


@dataclass
class VariationalParams:
    """Per-weight posterior mean and pre-softplus scale, flattened to 1-D."""

    mu: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.rho = np.asarray(self.rho, dtype=np.float64)
        if self.mu.ndim != 1 or self.mu.shape != self.rho.shape:
            raise ValueError("mu and rho must be equal-length 1-D vectors")
        if not (np.all(np.isfinite(self.mu)) and np.all(np.isfinite(self.rho))):
            raise ValueError("variational parameters must be finite")

    def __len__(self) -> int:
        return self.mu.shape[0]

    @property
    def sigma(self) -> np.ndarray:
        return softplus(self.rho)


@dataclass
class WeightSample:
    """A posterior draw (K,), or a stack of draws (n, K), with the noise that produced it and the
    posterior scale softplus(rho) (K,) it was drawn at; ``logit_noise`` (B, C) makes it per-example."""

    theta: np.ndarray
    epsilon: np.ndarray
    sigma: np.ndarray
    logit_noise: np.ndarray | None = None


def gaussian_log_pdf(x, mean: float, sigma: float):
    """Exact log N(x; mean, sigma^2); accepts scalar or array x."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    z = (np.asarray(x, dtype=np.float64) - mean) / sigma
    return -np.log(sigma) - 0.5 * _LOG_2PI - 0.5 * z * z


@lru_cache(maxsize=16)
def _mixture_constants(prior: SpikeSlabPrior, width: tuple, ndim: int) -> tuple:
    """The slab's and the spike's constants stacked to broadcast over (2, *x.shape), for an x with
    ``ndim`` axes whose last is ``width`` (() for a scalar): sigma, log(pi) and log(1 - pi),
    -log(sigma) - log(2 pi) / 2 as ``gaussian_log_pdf`` forms it, and -sigma**2, which divides x in
    the score.  Each row is whole along x's last axis, not a (2, 1) column: a ufunc over operands
    of one shape skips numpy's broadcasting set-up, about half of a call at a training step's width."""
    with np.errstate(divide="ignore"):  # log(0) at the pi endpoints is fine
        log_w = (np.log(prior.mix_weight), np.log1p(-prior.mix_weight))
    sigma = (prior.slab_sigma, prior.spike_sigma)
    norm = tuple(-np.log(s) - 0.5 * _LOG_2PI for s in sigma)
    neg_var = tuple(-(s**2) for s in sigma)
    column, shape = (2, *(1,) * ndim), (2, *(1,) * (ndim - len(width)), *width)
    rows = tuple(np.broadcast_to(np.reshape(c, column), shape).astype(np.float64)
                 for c in (sigma, log_w, norm, neg_var))
    for r in rows:
        r.setflags(write=False)  # every call shares them
    return rows


def _mixture_log_terms(x, prior: SpikeSlabPrior, out=None) -> np.ndarray:
    """The stack (2, *x.shape) of log(pi) + log N(x; 0, slab^2), then log(1 - pi) + log N(x; 0, spike^2).

    One set of ufunc calls forms both rows, each element with ``gaussian_log_pdf``'s operation order
    and z = x / sigma; the prior's sigmas were checked positive when it was made.  ``out``, two
    arrays shaped like the stack, receives the terms in the first and z in the second.
    """
    x = np.asarray(x, dtype=np.float64)
    sigma, log_w, norm, _ = _mixture_constants(prior, x.shape[-1:], x.ndim)
    terms, z = np.empty((2, 2, *x.shape)) if out is None else out
    np.divide(x, sigma, out=z)
    np.multiply(z, 0.5, out=terms)
    terms *= z
    np.subtract(norm, terms, out=terms)
    terms += log_w
    return terms


def spike_slab_log_pdf(x, prior: SpikeSlabPrior):
    """log p(x) of the mixture prior via log-sum-exp; scalar or array x."""
    return np.logaddexp(*_mixture_log_terms(x, prior))


def spike_slab_score(x, prior: SpikeSlabPrior):
    """d/dx log p(x): responsibility-weighted Gaussian scores."""
    return _log_pdf_and_score(x, prior)[1]


def _work(shape) -> tuple:
    """Fresh ``out`` arrays for ``_log_pdf_and_score``: two shaped ``shape``, then two stacks (2, *shape)."""
    work = np.empty((6, *shape))
    return work[0, ...], work[1, ...], work[2:4], work[4:]


def _log_pdf_and_score(x, prior: SpikeSlabPrior, out=None):
    """(log p(x), d/dx log p(x)) from one ``_mixture_log_terms`` and one log-sum-exp.  ``out`` is
    two arrays shaped like x, which receive them, and two shaped like the stack (2, *x.shape), scratch."""
    x = np.asarray(x, dtype=np.float64)
    log_p, score, terms, z = _work(x.shape) if out is None else out
    _mixture_log_terms(x, prior, (terms, z))
    slab, spike = terms[0, ...], terms[1, ...]  # views, for a scalar x too
    np.logaddexp(slab, spike, out=log_p)
    np.exp(np.subtract(slab, log_p, out=slab), out=slab)  # the slab's responsibility r
    np.subtract(1.0, slab, out=spike)
    neg_var = _mixture_constants(prior, x.shape[-1:], x.ndim)[3]
    np.divide(x, neg_var, out=z)  # -x / sigma^2: x / (-sigma^2) rounds as (-x) / sigma^2 does
    z *= terms
    return log_p, np.add(z[0, ...], z[1, ...], out=score)  # r * (-x / slab^2) + (1 - r) * (-x / spike^2)


def sample_from_epsilon(params: VariationalParams, epsilon) -> WeightSample:
    """Reparameterized draw theta = mu + softplus(rho) * epsilon; epsilon (K,) or a stack (..., K)."""
    eps = np.asarray(epsilon, dtype=np.float64)
    if eps.shape[-1:] != params.mu.shape:
        raise ValueError("epsilon must match the parameter vector length")
    sigma = params.sigma
    return WeightSample(theta=params.mu + sigma * eps, epsilon=eps, sigma=sigma)


def sample_weights(params: VariationalParams, stream: RngStream) -> WeightSample:
    """Draw one weight sample from the posterior, advancing ``stream``."""
    return sample_from_epsilon(params, stream.normal(len(params)))


def mean_sample(params: VariationalParams) -> WeightSample:
    """The epsilon = 0 sample, i.e. the posterior mean weights."""
    return sample_from_epsilon(params, np.zeros(len(params)))


def kl_sample_estimate(theta, mu, sigma, prior: SpikeSlabPrior, log_p=None) -> np.ndarray:
    """One unbiased KL(q || p) estimate per draw, each of which may be negative: log q(theta) -
    log p(theta), summed over the last axis of ``theta``, a draw (K,) or a stack of draws (..., K).
    ``mu`` and ``sigma`` are the posterior mean and scale each draw was made at, one (K,) shared by
    every draw or a row per draw; log q is taken there.  ``log_p``, shaped like ``theta``, is
    log p(theta) if a pass over the prior formed it already, as a training step's does; else this
    call forms it.  The estimates are shaped ``theta.shape[:-1]``: a single draw's is a scalar."""
    if log_p is None:
        log_p = _log_pdf_and_score(theta, prior)[0]
    log_w = np.log(sigma)
    np.subtract(_NEG_HALF_LOG_2PI, log_w, out=log_w)  # -log(sigma) - log(2 pi) / 2: (-b) - a rounds as (-a) - b
    zq = np.subtract(theta, mu)
    zq /= sigma
    t = np.multiply(zq, 0.5)
    t *= zq
    log_q = np.add.reduce(np.subtract(log_w, t, out=t), axis=-1)
    return log_q - np.add.reduce(log_p, axis=-1)


def mc_kl(params: VariationalParams, prior: SpikeSlabPrior, n_samples: int, stream: RngStream) -> float:
    """Monte Carlo KL(q || p) averaged over ``n_samples`` posterior draws."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    eps = stream.normal(n_samples * len(params)).reshape(n_samples, len(params))
    sample = sample_from_epsilon(params, eps)
    kl = kl_sample_estimate(sample.theta, params.mu, sample.sigma, prior)
    return float(np.add.reduce(kl) / kl.size)  # np.mean's sum / count, without its wrapper

"""Spike-and-slab prior, mean-field posterior, and the Monte Carlo KL.

The prior over each scalar weight is a zero-mean two-component Gaussian
mixture: a wide "slab" permitting large weights and a narrow "spike"
concentrating mass near zero.  The posterior is a fully factorized
Gaussian with per-weight mean mu and scale sigma = softplus(rho).  The
KL from posterior to a mixture prior has no closed form, so it is
estimated by Monte Carlo over reparameterized draws
theta = mu + sigma * eps, eps ~ N(0, I).  ``kl_sample_estimate`` returns
the estimate with the prior's score at the draws, both from one pass over
the mixture terms, so a training step evaluates the prior once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import softplus
from .rng import RngStream

_LOG_2PI = float(np.log(2.0 * np.pi))


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
    """A posterior draw (K,), or a stack of draws (B, K), with the noise that produced it
    and the posterior scale softplus(rho) (K,) it was drawn at."""

    theta: np.ndarray
    epsilon: np.ndarray
    sigma: np.ndarray


def gaussian_log_pdf(x, mean: float, sigma: float):
    """Exact log N(x; mean, sigma^2); accepts scalar or array x."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    z = (np.asarray(x, dtype=np.float64) - mean) / sigma
    return -np.log(sigma) - 0.5 * _LOG_2PI - 0.5 * z * z


@lru_cache(maxsize=16)
def _mixture_log_constants(prior: SpikeSlabPrior) -> tuple:
    """log(pi), log(1 - pi) and each component's -log(sigma) - log(2 pi) / 2, as ``gaussian_log_pdf`` forms it."""
    with np.errstate(divide="ignore"):  # log(0) at the pi endpoints is fine
        log_pi, log_1m_pi = np.log(prior.mix_weight), np.log1p(-prior.mix_weight)
    return (log_pi, -np.log(prior.slab_sigma) - 0.5 * _LOG_2PI,
            log_1m_pi, -np.log(prior.spike_sigma) - 0.5 * _LOG_2PI)


def _mixture_log_terms(x, prior: SpikeSlabPrior, out=None):
    """(slab, spike): log(pi) + log N(x; 0, slab^2) and log(1 - pi) + log N(x; 0, spike^2).

    Each term keeps ``gaussian_log_pdf``'s operation order, with z = x / sigma; the prior's
    sigmas were checked positive when it was made.  ``out``, three arrays shaped like x,
    receives the terms in the first two and z in the third.
    """
    x = np.asarray(x, dtype=np.float64)
    slab, spike, z = [np.empty_like(x) for _ in range(3)] if out is None else out
    log_pi, slab_norm, log_1m_pi, spike_norm = _mixture_log_constants(prior)
    for term, sigma, log_w, norm in ((slab, prior.slab_sigma, log_pi, slab_norm),
                                     (spike, prior.spike_sigma, log_1m_pi, spike_norm)):
        np.divide(x, sigma, out=z)
        np.multiply(z, 0.5, out=term)
        term *= z
        np.subtract(norm, term, out=term)
        term += log_w
    return slab, spike


def spike_slab_log_pdf(x, prior: SpikeSlabPrior):
    """log p(x) of the mixture prior via log-sum-exp; scalar or array x."""
    return np.logaddexp(*_mixture_log_terms(x, prior))


def spike_slab_score(x, prior: SpikeSlabPrior):
    """d/dx log p(x): responsibility-weighted Gaussian scores."""
    return _log_pdf_and_score(x, prior)[1]


def _log_pdf_and_score(x, prior: SpikeSlabPrior, out=None):
    """(log p(x), d/dx log p(x)) from one ``_mixture_log_terms`` and one log-sum-exp; ``out``,
    four arrays shaped like x, receives them in the first two and is scratch in the rest."""
    x = np.asarray(x, dtype=np.float64)
    log_p, score, slab, spike = [np.empty_like(x) for _ in range(4)] if out is None else out
    _mixture_log_terms(x, prior, (slab, spike, log_p))
    np.logaddexp(slab, spike, out=log_p)
    r = np.exp(np.subtract(slab, log_p, out=slab), out=slab)
    neg_x = np.negative(x, out=spike)
    np.divide(neg_x, prior.slab_sigma**2, out=score)
    score *= r  # r * (-x / slab^2) + (1 - r) * (-x / spike^2)
    neg_x /= prior.spike_sigma**2
    neg_x *= np.subtract(1.0, r, out=r)
    score += neg_x
    return log_p, score


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


def kl_sample_estimate(params: VariationalParams, prior: SpikeSlabPrior,
                       sample: WeightSample, out=None) -> tuple[float, np.ndarray]:
    """(kl, score): the unbiased KL(q || p) estimate from one draw, or the mean over a stack of
    draws, which may be negative, and ``spike_slab_score(sample.theta, prior)``, the prior's
    score at the draws, shaped like ``sample.theta``; both from one pass over the mixture terms.
    log q(theta) is taken at the scale the draws were made with, ``sample.sigma``.  ``out``, four
    arrays shaped like ``sample.theta``, holds every intermediate; the score is the fourth."""
    theta, sigma = sample.theta, sample.sigma
    z, t, log_p, score = np.empty((4, *theta.shape)) if out is None else out
    log_w = log_p.reshape(-1, len(params))[0]  # -log(sigma) - log(2 pi) / 2, until log p is formed
    np.negative(np.log(sigma, out=log_w), out=log_w)
    log_w -= 0.5 * _LOG_2PI
    np.divide(np.subtract(theta, params.mu, out=z), sigma, out=z)
    np.multiply(z, 0.5, out=t)
    t *= z
    log_q = np.subtract(log_w, t, out=t).sum(axis=-1)
    _log_pdf_and_score(theta, prior, (log_p, score, z, t))
    kl = log_q - log_p.sum(axis=-1)
    return float(kl.sum() / kl.size), score  # np.mean's sum / count, without its wrapper


def mc_kl(params: VariationalParams, prior: SpikeSlabPrior, n_samples: int, stream: RngStream) -> float:
    """Monte Carlo KL(q || p) averaged over ``n_samples`` posterior draws."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    eps = stream.normal(n_samples * len(params)).reshape(n_samples, len(params))
    return kl_sample_estimate(params, prior, sample_from_epsilon(params, eps))[0]

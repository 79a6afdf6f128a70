"""Spike-and-slab prior, mean-field posterior, and the Monte Carlo KL.

The prior over each scalar weight is a zero-mean two-component Gaussian
mixture: a wide "slab" permitting large weights and a narrow "spike"
concentrating mass near zero.  The posterior is a fully factorized
Gaussian with per-weight mean mu and scale sigma = softplus(rho).  The
KL from posterior to a mixture prior has no closed form, so it is
estimated by Monte Carlo over reparameterized draws
theta = mu + sigma * eps, eps ~ N(0, I).
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if self.slab_sigma <= 0.0 or self.spike_sigma <= 0.0:
            raise ValueError("prior sigmas must be positive")
        if self.spike_sigma > self.slab_sigma:
            raise ValueError(
                f"spike_sigma ({self.spike_sigma}) must not exceed slab_sigma ({self.slab_sigma})"
            )

    @property
    def is_degenerate(self) -> bool:
        """True when the mixture collapses to a single Gaussian."""
        return self.mix_weight in (0.0, 1.0) or self.spike_sigma == self.slab_sigma


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


def stack_samples(samples) -> WeightSample | None:
    """A WeightSample (or None) as is; a sequence of draws of one posterior stacked row by row to (B, K)."""
    if samples is None or isinstance(samples, WeightSample):
        return samples
    return WeightSample(
        np.stack([s.theta for s in samples]), np.stack([s.epsilon for s in samples]), samples[0].sigma
    )


def gaussian_log_pdf(x, mean: float, sigma: float):
    """Exact log N(x; mean, sigma^2); accepts scalar or array x."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    z = (np.asarray(x, dtype=np.float64) - mean) / sigma
    return -np.log(sigma) - 0.5 * _LOG_2PI - 0.5 * z * z


def spike_slab_log_pdf(x, prior: SpikeSlabPrior):
    """log p(x) of the mixture prior via log-sum-exp; scalar or array x."""
    with np.errstate(divide="ignore"):  # log(0) at the pi endpoints is fine
        slab = np.log(prior.mix_weight) + gaussian_log_pdf(x, 0.0, prior.slab_sigma)
        spike = np.log1p(-prior.mix_weight) + gaussian_log_pdf(x, 0.0, prior.spike_sigma)
    return np.logaddexp(slab, spike)


def spike_slab_score(x, prior: SpikeSlabPrior):
    """d/dx log p(x): responsibility-weighted Gaussian scores."""
    with np.errstate(divide="ignore"):
        slab = np.log(prior.mix_weight) + gaussian_log_pdf(x, 0.0, prior.slab_sigma)
        spike = np.log1p(-prior.mix_weight) + gaussian_log_pdf(x, 0.0, prior.spike_sigma)
    r = np.exp(slab - np.logaddexp(slab, spike))
    x = np.asarray(x, dtype=np.float64)
    return r * (-x / prior.slab_sigma**2) + (1.0 - r) * (-x / prior.spike_sigma**2)


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


def kl_sample_estimate(params: VariationalParams, prior: SpikeSlabPrior, sample: WeightSample) -> float:
    """Unbiased KL(q || p) estimate from one draw, or the mean over a stack of draws; may be negative.
    log q(theta) is taken at the scale the draws were made with, ``sample.sigma``."""
    z = (sample.theta - params.mu) / sample.sigma
    log_q = np.sum(-np.log(sample.sigma) - 0.5 * _LOG_2PI - 0.5 * z * z, axis=-1)
    log_p = np.sum(spike_slab_log_pdf(sample.theta, prior), axis=-1)
    return float(np.mean(log_q - log_p))


def mc_kl(params: VariationalParams, prior: SpikeSlabPrior, n_samples: int, stream: RngStream) -> float:
    """Monte Carlo KL(q || p) averaged over ``n_samples`` posterior draws."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    eps = stream.normal(n_samples * len(params)).reshape(n_samples, len(params))
    return kl_sample_estimate(params, prior, sample_from_epsilon(params, eps))

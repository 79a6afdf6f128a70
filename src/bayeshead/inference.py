"""Monte Carlo predictive inference and the accept/refer triage rule.

A prediction is the mean of per-draw softmax outputs over n posterior
weight draws; its per-class spread (population variance, 1/n) is the
uncertainty signal.  Draw i uses the weights of the child stream keyed by
i, so all rows share one stack of n weight sets, and ``stacked_probs``
forms each row's products on their own: a row gets the same bits alone
or in a block of any size.  ``summarize_block`` turns a block's draws into
per-row summaries with one reduction per statistic and one percentile call
for both interval bounds; a single row is its one-row case, so a summary
also has the same bits alone or in a block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import softmax
from .errors import NumericError, VariantError
from .network import HeadModel, dense_forward
from .rng import RngStream


@dataclass
class PredictiveResult:
    sample_probs: np.ndarray  # (n, n_classes) per-draw softmax outputs
    mean_probs: np.ndarray
    var_probs: np.ndarray
    entropy_bits: float
    ci_low: np.ndarray
    ci_high: np.ndarray
    predicted_class: int
    uncertainty_scalar: float


@dataclass(frozen=True)
class ReferralDecision:
    action: str  # "accept" | "refer"
    threshold_used: float
    basis: str  # "uncertainty_scalar" | "confidence"


@dataclass(frozen=True)
class ReferralThresholds:
    uncertainty: float = 0.01
    confidence: float = 0.99


def _require_simplex(p: np.ndarray, message: str) -> None:
    """Every vector along the last axis is a probability vector, to tolerance; NaN fails the checks."""
    if not (np.all(p >= -1e-12) and np.all(np.abs(p.sum(axis=-1) - 1.0) <= 1e-6)):
        raise ValueError(message)


def _tail(level: float) -> float:
    """Percent of the draws left out on each side of a ``level`` interval."""
    if not 0.0 < level <= 1.0:
        raise ValueError(f"level must lie in (0, 1], got {level}")
    return 100.0 * (1.0 - level) / 2.0


def entropy_bits(probs) -> float:
    """Shannon entropy in bits with 0*log0 = 0."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("entropy needs a nonempty probability vector")
    _require_simplex(p, "input is not a probability vector")
    p = np.clip(p, 0.0, 1.0)
    nz = p > 0.0
    return float(-np.sum(p[nz] * np.log2(p[nz])))


def credible_interval(samples, level: float) -> tuple[float, float]:
    """Empirical percentile interval with linear interpolation."""
    s = np.asarray(samples, dtype=np.float64)
    if s.size == 0:
        raise ValueError("credible interval of empty samples")
    tail = _tail(level)
    low, high = np.percentile(s, [tail, 100.0 - tail])
    return float(low), float(high)


def summarize_block(sample_probs, level: float = 0.95) -> list[PredictiveResult]:
    """The predictive summary of each row of an (N, n_draws, n_classes) block.

    Each statistic is one reduction over the draw axis of the whole block,
    and both interval bounds come from one percentile call; row i gets the
    same bits as the summary of ``sample_probs[i]`` alone.
    """
    probs = np.asarray(sample_probs, dtype=np.float64)
    if probs.ndim != 3 or probs.shape[1] < 1 or probs.shape[2] < 2:
        raise ValueError("sample_probs must be (n_rows, n_draws, n_classes >= 2)")
    _require_simplex(probs, "each draw must be a probability vector")
    tail = _tail(level)
    n = probs.shape[1]
    mean = probs.sum(axis=1) / n  # fixed-order reduction
    var = ((probs - mean[:, None]) ** 2).sum(axis=1) / n  # population variance, 1/n
    lows, highs = np.percentile(probs, [tail, 100.0 - tail], axis=1)
    _require_simplex(mean, "input is not a probability vector")
    p = np.clip(mean, 0.0, 1.0)
    positive = p > 0.0
    entropy = (-(p * np.log2(np.where(positive, p, 1.0))).sum(axis=1)).tolist()
    # entropy_bits sums only the nonzero terms; a zero term would change numpy's
    # pairwise summation order once there are 8 or more, so those rows go through it
    for i in np.flatnonzero(~positive.all(axis=1)):
        entropy[i] = entropy_bits(mean[i])
    classes = np.argmax(mean, axis=1).tolist()
    uncertainty = var.max(axis=1).tolist()
    return [
        PredictiveResult(probs[i], mean[i], var[i], entropy[i], lows[i], highs[i], classes[i], uncertainty[i])
        for i in range(probs.shape[0])
    ]


def predictive_from_samples(sample_probs, level: float = 0.95) -> PredictiveResult:
    """Assemble the predictive summary from an (n, n_classes) draw matrix:
    the one-row case of ``summarize_block``."""
    probs = np.asarray(sample_probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] < 1 or probs.shape[1] < 2:
        raise ValueError("sample_probs must be (n_draws, n_classes >= 2)")
    return summarize_block(probs[None], level)[0]


def posterior_draws(model: HeadModel, n: int, stream: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Output weights (n, H, C) and biases (n, C); draw i is the sample of
    ``stream.derive(i)`` and ``stream`` is not advanced."""
    if not model.is_bayesian:
        raise VariantError("posterior draws require the bayesian variant")
    params = model.output.params
    with np.errstate(over="ignore", invalid="ignore"):  # overflowed weights raise at stacked_probs
        theta = params.mu + params.sigma * stream.child_normals(n, len(params))
    return model.output.unflatten(theta)


def point_weights(model: HeadModel) -> tuple[np.ndarray, np.ndarray]:
    """The posterior mean or point weights as a one-set stack (1, H, C), (1, C)."""
    if model.is_bayesian:
        return model.output.unflatten(model.output.params.mu[None])
    return model.output.weights[None], model.output.bias[None]


def stacked_probs(model: HeadModel, x, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Softmax outputs (N, n, C) of rows x (N, D) under the weight stack w, b."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"rows must have shape (N, {model.feature_dim}), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input rows must be finite")
    # Row-stacked products: x @ w or einsum could give a row other bits in other block sizes.
    h = dense_forward(model.hidden, x[:, None, :])[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, raised as NumericError
        logits = (h[:, None, None, :] @ w)[:, :, 0] + b
    if not model.is_bayesian and model.output.activation == "relu":
        logits = np.maximum(logits, 0.0)
    if not np.all(np.isfinite(logits)):
        raise NumericError("prediction logits are not finite: the model weights overflow on these rows")
    return softmax(logits)


def predict_mc(
    model: HeadModel,
    x,
    n: int,
    stream: RngStream,
    workers: int = 1,
    level: float = 0.95,
) -> PredictiveResult:
    """n-draw Monte Carlo prediction for one input.

    Does not advance ``stream``: draw i derives the child stream keyed by
    i.  ``workers`` is accepted for compatibility and has no effect.
    """
    probs = stacked_probs(model, [x], *posterior_draws(model, n, stream))
    return predictive_from_samples(probs[0], level)


def predict_deterministic(model: HeadModel, x, level: float = 0.95) -> PredictiveResult:
    """Single-pass prediction (posterior mean / point weights); zero variance."""
    probs = stacked_probs(model, [x], *point_weights(model))
    return predictive_from_samples(probs[0], level)


def referral_decision(
    result: PredictiveResult,
    uncertainty_threshold: float,
    confidence_threshold: float,
) -> ReferralDecision:
    """Refer when predictive variance is too high or confidence too low."""
    if uncertainty_threshold < 0.0:
        raise ValueError("uncertainty threshold must be >= 0")
    if not 0.0 < confidence_threshold <= 1.0:
        raise ValueError("confidence threshold must lie in (0, 1]")
    if result.uncertainty_scalar > uncertainty_threshold:
        return ReferralDecision("refer", uncertainty_threshold, "uncertainty_scalar")
    if float(result.mean_probs.max()) < confidence_threshold:
        return ReferralDecision("refer", confidence_threshold, "confidence")
    return ReferralDecision("accept", uncertainty_threshold, "uncertainty_scalar")

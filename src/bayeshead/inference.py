"""Monte Carlo predictive inference and the accept/refer triage rule.

A prediction is the mean of per-draw softmax outputs over n posterior
weight draws; its per-class spread (population variance, 1/n) is the
uncertainty signal.  Draw i uses the weights of the child stream keyed by
i, so all rows share one stack of n weight sets, and ``stacked_probs``
forms each row's products on their own: a row gets the same bits alone
or in a block of any size.  It lays a block out draw-major and hands back
an (N, n, C) view of it, so the reductions over the draw axis run along
N * C contiguous values.  ``block_summary`` turns a block's draws into
stacked per-row statistics with one reduction per statistic and one sort
for both interval bounds, read off with numpy's linear percentile rule; a
single row is its one-row case, so a summary also has the same bits alone
or in a block.  ``referral_rule`` is the accept/refer rule, on one row's
values or elementwise on a block's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import reduce_classes, softmax
from .errors import NumericError, VariantError
from .network import HeadModel, dense_forward
from .rng import RngStream

CI_LEVEL = 0.95  # default credible-interval level of every prediction path and the CLI
MC_SAMPLES = 50  # the CLI's default number of posterior draws per prediction


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
    if not ((p >= -1e-12).all() and (np.abs(reduce_classes(np.add, p) - 1.0) <= 1e-6).all()):
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
    """Empirical percentile interval with linear interpolation, through ``np.percentile``;
    a NaN sample gives NaN bounds rather than an error."""
    s = np.asarray(samples, dtype=np.float64)
    if s.size == 0:
        raise ValueError("credible interval of empty samples")
    tail = _tail(level)
    low, high = np.percentile(s, [tail, 100.0 - tail])
    return float(low), float(high)


@lru_cache(maxsize=64)
def _interval_ranks(n: int, tail: float) -> tuple[tuple[int, int, float], ...]:
    """The two ranks and the weight of the lower and upper bound over n sorted draws,
    by numpy's linear percentile rule: virtual index (n - 1) * q, ranks its floor and
    floor + 1, both -1 at or past the last draw, weight the index less the floor."""
    index = (n - 1) * np.true_divide([tail, 100.0 - tail], 100)
    lower = np.floor(index)
    upper = lower + 1
    past = index >= n - 1
    lower[past] = upper[past] = -1
    return tuple(zip(lower.astype(int).tolist(), upper.astype(int).tolist(), (index - lower).tolist()))


def _lerp(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """numpy's percentile interpolation with a scalar weight, so a bound has the bits of ``np.percentile``."""
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


@dataclass
class BlockSummary:
    """The predictive statistics of each row of an (N, n_draws, n_classes) block, stacked by row."""

    sample_probs: np.ndarray  # (N, n, C) per-draw softmax outputs
    mean_probs: np.ndarray  # (N, C)
    var_probs: np.ndarray  # (N, C)
    ci_low: np.ndarray  # (N, C)
    ci_high: np.ndarray  # (N, C)
    entropy_bits: list[float]
    predicted_class: list[int]
    uncertainty: np.ndarray  # (N,) each row's largest per-class variance


def block_summary(sample_probs, level: float = CI_LEVEL) -> BlockSummary:
    """The predictive summary of every row of an (N, n_draws, n_classes) block.

    Each statistic is one reduction over the draw axis of the whole block,
    and both interval bounds come from one sort of it; row i gets the same
    bits as the summary of ``sample_probs[i]`` alone, and each bound the bits
    of ``np.percentile`` over the row's draws.
    """
    probs = np.asarray(sample_probs, dtype=np.float64)
    if probs.ndim != 3 or probs.shape[1] < 1 or probs.shape[2] < 2:
        raise ValueError("sample_probs must be (n_rows, n_draws, n_classes >= 2)")
    _require_simplex(probs, "each draw must be a probability vector")
    tail = _tail(level)
    n = probs.shape[1]
    mean = probs.sum(axis=1) / n  # fixed-order reduction
    var = ((probs - mean[:, None]) ** 2).sum(axis=1) / n  # population variance, 1/n
    ordered = np.sort(probs, axis=1)
    lows, highs = (_lerp(ordered[:, lo], ordered[:, hi], t) for lo, hi, t in _interval_ranks(n, tail))
    _require_simplex(mean, "input is not a probability vector")
    p = np.clip(mean, 0.0, 1.0)
    positive = p > 0.0
    entropy = (-(p * np.log2(np.where(positive, p, 1.0))).sum(axis=1)).tolist()
    # entropy_bits sums only the nonzero terms; a zero term would change numpy's
    # pairwise summation order once there are 8 or more, so those rows go through it
    if not positive.all():
        for i in np.flatnonzero(~positive.all(axis=1)):
            entropy[i] = entropy_bits(mean[i])
    return BlockSummary(probs, mean, var, lows, highs, entropy, np.argmax(mean, axis=1).tolist(), var.max(axis=1))


def summarize_block(sample_probs, level: float = CI_LEVEL) -> list[PredictiveResult]:
    """``block_summary`` as one ``PredictiveResult`` per row."""
    s = block_summary(sample_probs, level)
    uncertainty = s.uncertainty.tolist()
    return [
        PredictiveResult(s.sample_probs[i], s.mean_probs[i], s.var_probs[i], s.entropy_bits[i], s.ci_low[i],
                         s.ci_high[i], s.predicted_class[i], uncertainty[i])
        for i in range(len(uncertainty))
    ]


def predictive_from_samples(sample_probs, level: float = CI_LEVEL) -> PredictiveResult:
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
    """Softmax outputs (N, n, C) of rows x (N, D) under the weight stack w, b; the output layer is linear.

    The result is a view of a draw-major (n, N, C) array.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"rows must have shape (N, {model.feature_dim}), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("input rows must be finite")
    # One (1, H) @ (H, C) product per draw and row: x @ w or einsum could give a row other bits in
    # other block sizes.
    h = dense_forward(model.hidden, x[:, None, :])[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, raised as NumericError
        logits = (h[None, :, None, :] @ w[:, None])[:, :, 0] + b[:, None]
    if not np.isfinite(logits).all():
        raise NumericError("prediction logits are not finite: the model weights overflow on these rows")
    return softmax(logits).transpose(1, 0, 2)


def predict_mc(
    model: HeadModel,
    x,
    n: int,
    stream: RngStream,
    level: float = CI_LEVEL,
) -> PredictiveResult:
    """n-draw Monte Carlo prediction for one input.

    Does not advance ``stream``: draw i derives the child stream keyed by i.
    """
    probs = stacked_probs(model, [x], *posterior_draws(model, n, stream))
    return predictive_from_samples(probs[0], level)


def predict_deterministic(model: HeadModel, x, level: float = CI_LEVEL) -> PredictiveResult:
    """Single-pass prediction (posterior mean / point weights); zero variance."""
    probs = stacked_probs(model, [x], *point_weights(model))
    return predictive_from_samples(probs[0], level)


def check_thresholds(uncertainty_threshold: float, confidence_threshold: float) -> None:
    """ValueError unless the uncertainty threshold is >= 0 and the confidence threshold lies in (0, 1]."""
    if not uncertainty_threshold >= 0.0:  # NaN fails it too
        raise ValueError(f"uncertainty threshold must be >= 0, got {uncertainty_threshold}")
    if not 0.0 < confidence_threshold <= 1.0:
        raise ValueError("confidence threshold must lie in (0, 1]")


def referral_rule(uncertainty, top_prob, uncertainty_threshold: float, confidence_threshold: float):
    """The triage rule on a row's uncertainty and top mean probability, or elementwise on arrays of
    them: (refer for uncertainty, refer for low confidence).  A row is referred if either holds."""
    return uncertainty > uncertainty_threshold, top_prob < confidence_threshold


def referral_decision(
    result: PredictiveResult,
    uncertainty_threshold: float,
    confidence_threshold: float,
) -> ReferralDecision:
    """Refer when predictive variance is too high or confidence too low."""
    check_thresholds(uncertainty_threshold, confidence_threshold)
    uncertain, unconfident = referral_rule(
        result.uncertainty_scalar, float(result.mean_probs.max()), uncertainty_threshold, confidence_threshold
    )
    if uncertain:
        return ReferralDecision("refer", uncertainty_threshold, "uncertainty_scalar")
    if unconfident:
        return ReferralDecision("refer", confidence_threshold, "confidence")
    return ReferralDecision("accept", uncertainty_threshold, "uncertainty_scalar")

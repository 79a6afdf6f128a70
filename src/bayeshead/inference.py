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
or in a block.  The sort runs on a contiguous (N, C, n) copy of the
draws: along the draw axis of the draw-major (N, n, C) view consecutive
draws lie N * C values apart, so sorting the view in place of the copy
grows several times slower per row as blocks grow, while sorting is exact
and the bounds keep their bits either way.  ``referral_rule`` is the
accept/refer rule, on one row's values or elementwise on a block's.

Each input is checked once.  ``stacked_probs`` checks the rows for
finiteness and leaves the logits to ``core.softmax``'s finiteness check,
raising its failure as ``NumericError`` (an empty block keeps softmax's
ValueError).  ``block_summary`` checks that every draw is a probability
vector; ``_entropy`` takes the mean of checked draws without a second
check, while ``entropy_bits`` checks its own argument.

Two memos sit one above the other.  ``posterior_draws`` keeps the last 8
read-only weight stacks that ``distributions.sample_from_epsilon`` forms
(8 * n * K * 8 bytes), keyed by the stream, n, the output shape and the
bytes of mu and rho, so an update in place misses.  Each call still reads
eps through ``stream.child_normals``, whose memo of noise blocks sits
beneath ``RngStream.normal`` in ``rng``.  Deterministic prediction reads
``network.point_weights``, the posterior mean that validation reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import reduce_classes, softmax
from .errors import NumericError, VariantError
from .distributions import sample_from_epsilon
from .network import HeadModel, dense_forward, point_weights
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
    """The triage rule's bounds, checked on construction: uncertainty >= 0, confidence in (0, 1]."""

    uncertainty: float = 0.01
    confidence: float = 0.99

    def __post_init__(self):
        if not self.uncertainty >= 0.0:  # NaN fails it too
            raise ValueError(f"uncertainty threshold must be >= 0, got {self.uncertainty}")
        if not 0.0 < self.confidence <= 1.0:
            raise ValueError("confidence threshold must lie in (0, 1]")


def _require_simplex(p: np.ndarray, message: str) -> None:
    """Every vector along the last axis is a probability vector, to tolerance.  Both reductions
    carry a NaN through and pass an empty stack, so NaN and inf fail and an empty block passes."""
    deviation = np.abs(reduce_classes(np.add, p) - 1.0)
    if not (p.min(initial=np.inf) >= -1e-12 and deviation.max(initial=0.0) <= 1e-6):
        raise ValueError(message)


def _tail(level: float) -> float:
    """Percent of the draws left out on each side of a ``level`` interval."""
    if not 0.0 < level <= 1.0:
        raise ValueError(f"level must lie in (0, 1], got {level}")
    return 100.0 * (1.0 - level) / 2.0


def _entropy(mean: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each row of an (N, C) stack of checked probability vectors:
    -sum p * log2 p over every entry, where a zero entry adds a zero term."""
    p = np.clip(mean, 0.0, 1.0)
    return -(p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=1)


def entropy_bits(probs) -> float:
    """Shannon entropy in bits with 0*log0 = 0: the one-row case of ``block_summary``'s rule."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("entropy needs a nonempty probability vector")
    _require_simplex(p, "input is not a probability vector")
    return float(_entropy(p[None])[0])


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
    ordered = np.ascontiguousarray(probs.transpose(0, 2, 1))  # (N, C, n): each row's draws of a class in a run
    ordered.sort(axis=2)
    lows, highs = (_lerp(ordered[..., lo], ordered[..., hi], t) for lo, hi, t in _interval_ranks(n, tail))
    entropy = _entropy(mean).tolist()
    return BlockSummary(probs, mean, var, lows, highs, entropy, np.argmax(mean, axis=1).tolist(), var.max(axis=1))


def predictive_from_samples(sample_probs, level: float = CI_LEVEL) -> PredictiveResult:
    """Assemble the predictive summary from an (n, n_classes) draw matrix:
    the one-row case of ``block_summary``."""
    probs = np.asarray(sample_probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] < 1 or probs.shape[1] < 2:
        raise ValueError("sample_probs must be (n_draws, n_classes >= 2)")
    s = block_summary(probs[None], level)
    return PredictiveResult(s.sample_probs[0], s.mean_probs[0], s.var_probs[0], s.entropy_bits[0], s.ci_low[0],
                            s.ci_high[0], s.predicted_class[0], float(s.uncertainty[0]))


_STACKS: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}  # posterior_draws' memo, least recently used first


def posterior_draws(model: HeadModel, n: int, stream: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Output weights (n, H, C) and biases (n, C); draw i is the sample of
    ``stream.derive(i)`` and ``stream`` is not advanced.  The stack is read-only and memoized."""
    if not model.is_bayesian:
        raise VariantError("posterior draws require the bayesian variant")
    out, params = model.output, model.output.params
    eps = stream.child_normals(n, len(params))  # on a hit too, so RngStream.normal sees every draw
    key = (stream.seed, stream.stream_id, n, out.in_dim, out.out_dim, params.mu.tobytes(), params.rho.tobytes())
    stack = _STACKS.pop(key, None)
    if stack is None:
        with np.errstate(over="ignore", invalid="ignore"):  # overflowed weights raise at stacked_probs
            theta = sample_from_epsilon(params, eps).theta
        theta.setflags(write=False)
        stack = out.unflatten(theta)
    _STACKS[key] = stack
    if len(_STACKS) > 8:
        del _STACKS[next(iter(_STACKS))]
    return stack


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
    with np.errstate(over="ignore", invalid="ignore"):  # softmax checks them, raised as NumericError
        logits = (h[None, :, None, :] @ w[:, None])[:, :, 0] + b[:, None]
    try:
        probs = softmax(logits)
    except ValueError:
        if not logits.size:  # an empty row block: softmax's own input error
            raise
        raise NumericError("prediction logits are not finite: the model weights overflow on these rows") from None
    return probs.transpose(1, 0, 2)


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
    probs = stacked_probs(model, np.asarray(x, dtype=np.float64)[None], *posterior_draws(model, n, stream))
    return predictive_from_samples(probs[0], level)


def predict_deterministic(model: HeadModel, x, level: float = CI_LEVEL) -> PredictiveResult:
    """Single-pass prediction (posterior mean / point weights); zero variance."""
    probs = stacked_probs(model, [x], *point_weights(model))
    return predictive_from_samples(probs[0], level)


def referral_rule(uncertainty, top_prob, uncertainty_threshold: float, confidence_threshold: float):
    """The triage rule on a row's uncertainty and top mean probability, or elementwise on arrays of
    them: (refer for uncertainty, refer for low confidence).  A row is referred if either holds."""
    return uncertainty > uncertainty_threshold, top_prob < confidence_threshold


def referral_decision(
    result: PredictiveResult,
    uncertainty_threshold: float,
    confidence_threshold: float,
) -> ReferralDecision:
    """Refer when predictive variance is too high or confidence too low; the thresholds are
    checked as ``ReferralThresholds`` checks them."""
    t = ReferralThresholds(uncertainty_threshold, confidence_threshold)
    uncertain, unconfident = referral_rule(
        result.uncertainty_scalar, float(result.mean_probs.max()), t.uncertainty, t.confidence
    )
    if uncertain:
        return ReferralDecision("refer", t.uncertainty, "uncertainty_scalar")
    if unconfident:
        return ReferralDecision("refer", t.confidence, "confidence")
    return ReferralDecision("accept", t.uncertainty, "uncertainty_scalar")

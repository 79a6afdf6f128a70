"""Dataset-level evaluation and uncertainty analytics.

``predict_records`` is the one prediction loop: per fixed block of rows,
one kernel call and one block summary, then one record per row.  On top
of it sit accuracy/confusion reports, Gaussian-kernel KDE curves of
uncertainty values, entropy-bin histograms split by correctness, and the
bayesian-vs-baseline comparison table.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import FeatureDataset, echo_header
from .inference import (
    PredictiveResult,
    ReferralThresholds,
    point_weights,
    posterior_draws,
    referral_decision,
    stacked_probs,
    summarize_block,
)
from .network import HeadModel
from .rng import RngStream

REPORT_SCHEMA_VERSION = 1

_BLOCK_ROWS = 64  # rows per kernel call; bounds memory and leaves every bit as it is

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


@dataclass
class KdeCurve:
    grid: np.ndarray
    density: np.ndarray
    bandwidth: float


@dataclass
class EntropyHistogram:
    """Per-group fractions over uniform bins on [0, log2(n_classes)];
    a group with no members is reported as None (absent)."""

    bin_edges: np.ndarray
    correct_fraction: np.ndarray | None
    incorrect_fraction: np.ndarray | None


@dataclass
class PredictionRecord:
    id: str
    label: int
    predicted_class: int
    correct: bool
    mean_probs: list[float]
    var_probs: list[float]
    entropy_bits: float
    ci_low: list[float]
    ci_high: list[float]
    uncertainty: float
    action: str

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PredictionRecord":
        return cls(**{k: d[k] for k in cls.__dataclass_fields__})


@dataclass
class EvalReport:
    dataset_name: str
    accuracy: float
    confusion: np.ndarray  # (C, C) counts, rows = true class
    records: list[PredictionRecord]
    mean_entropy_correct: float | None
    mean_entropy_incorrect: float | None
    referral_rate: float
    mc_samples: int
    n_classes: int

    def to_dict(self, config: dict | None = None) -> dict:
        d = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "dataset_name": self.dataset_name,
            "n_classes": self.n_classes,
            "mc_samples": self.mc_samples,
            "accuracy": self.accuracy,
            "referral_rate": self.referral_rate,
            "mean_entropy_correct": self.mean_entropy_correct,
            "mean_entropy_incorrect": self.mean_entropy_incorrect,
            "confusion": self.confusion.tolist(),
            "records": [r.to_dict() for r in self.records],
        }
        if config is not None:
            d["config"] = config
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        version = d.get("schema_version")
        if version != REPORT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported report schema_version {version}; expected {REPORT_SCHEMA_VERSION}"
            )
        return cls(
            dataset_name=d["dataset_name"],
            accuracy=d["accuracy"],
            confusion=np.asarray(d["confusion"], dtype=np.int64),
            records=[PredictionRecord.from_dict(r) for r in d["records"]],
            mean_entropy_correct=d["mean_entropy_correct"],
            mean_entropy_incorrect=d["mean_entropy_incorrect"],
            referral_rate=d["referral_rate"],
            mc_samples=d["mc_samples"],
            n_classes=d["n_classes"],
        )


def _record_for(dataset, j, result: PredictiveResult, thresholds) -> PredictionRecord:
    decision = referral_decision(result, thresholds.uncertainty, thresholds.confidence)
    label = int(dataset.labels[j])
    return PredictionRecord(
        id=dataset.ids[j],
        label=label,
        predicted_class=result.predicted_class,
        correct=result.predicted_class == label,
        mean_probs=result.mean_probs.tolist(),
        var_probs=result.var_probs.tolist(),
        entropy_bits=result.entropy_bits,
        ci_low=result.ci_low.tolist(),
        ci_high=result.ci_high.tolist(),
        uncertainty=result.uncertainty_scalar,
        action=decision.action,
    )


def predict_records(
    model: HeadModel,
    dataset: FeatureDataset,
    n: int,
    thresholds: ReferralThresholds,
    stream: RngStream,
    ci_level: float = 0.95,
) -> list[PredictionRecord]:
    """One record per row, in dataset order, through the batched kernel and
    the block summary in fixed blocks; each equals the record of ``predict_mc`` (n draws shared
    by every row) or ``predict_deterministic`` on its row alone."""
    w, b = posterior_draws(model, n, stream) if model.is_bayesian else point_weights(model)
    records = []
    for start in range(0, len(dataset), _BLOCK_ROWS):
        block = stacked_probs(model, dataset.features[start : start + _BLOCK_ROWS], w, b)
        for j, result in enumerate(summarize_block(block, ci_level), start):
            records.append(_record_for(dataset, j, result, thresholds))
    return records


def evaluate(
    model: HeadModel,
    dataset: FeatureDataset,
    n: int,
    thresholds: ReferralThresholds,
    stream: RngStream,
    workers: int = 1,
    ci_level: float = 0.95,
) -> EvalReport:
    """``predict_records`` plus dataset aggregation; ``workers`` is
    accepted for compatibility and has no effect."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate an empty dataset")
    if dataset.n_classes > model.n_classes:
        raise ValueError("dataset contains labels outside the model's classes")
    records = predict_records(model, dataset, n, thresholds, stream, ci_level)

    c = model.n_classes
    confusion = np.zeros((c, c), dtype=np.int64)
    for r in records:
        confusion[r.label, r.predicted_class] += 1
    accuracy = float(np.trace(confusion)) / len(records)
    correct_h = [r.entropy_bits for r in records if r.correct]
    incorrect_h = [r.entropy_bits for r in records if not r.correct]
    return EvalReport(
        dataset_name=dataset.name,
        accuracy=accuracy,
        confusion=confusion,
        records=records,
        mean_entropy_correct=float(np.mean(correct_h)) if correct_h else None,
        mean_entropy_incorrect=float(np.mean(incorrect_h)) if incorrect_h else None,
        referral_rate=sum(r.action == "refer" for r in records) / len(records),
        mc_samples=n,
        n_classes=c,
    )


def silverman_bandwidth(values) -> float:
    """0.9 * min(sd, IQR/1.34) * m^(-1/5), sample sd; falls back to sd when
    the IQR is zero and rejects zero-spread data."""
    v = np.asarray(values, dtype=np.float64)
    if v.size < 2:
        raise ValueError("bandwidth rule needs at least 2 values")
    sd = float(np.std(v, ddof=1))
    if sd == 0.0:
        raise ValueError("zero spread: bandwidth is undefined")
    q75, q25 = np.percentile(v, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    return 0.9 * spread * v.size ** (-0.2)


def kde(values, bandwidth: float | None = None, grid_points: int = 401) -> KdeCurve:
    """Gaussian-kernel density on a uniform grid over [min-4h, max+4h]."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("kde of empty values")
    if bandwidth is None:
        if v.size < 2:
            raise ValueError("bandwidth required for a single value")
        bandwidth = silverman_bandwidth(v)
    h = float(bandwidth)
    if h <= 0.0 or not np.isfinite(h):
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    grid = np.linspace(v.min() - 4.0 * h, v.max() + 4.0 * h, grid_points)
    z = (grid[:, None] - v[None, :]) / h
    density = np.exp(-0.5 * z * z).sum(axis=1) / (v.size * h * _SQRT_2PI)
    return KdeCurve(grid=grid, density=density, bandwidth=h)


def entropy_histogram(records, n_bins: int, n_classes: int = 2) -> EntropyHistogram:
    """Fractions of each correctness group over uniform entropy bins.

    ``records`` is an iterable of (entropy_bits, correct) pairs.  Interior
    bin edges belong to the lower bin; the top edge stays in the last bin.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    edges = np.linspace(0.0, float(np.log2(n_classes)), n_bins + 1)

    def fractions(values: list[float]) -> np.ndarray | None:
        if not values:
            return None
        idx = np.digitize(values, edges, right=True) - 1
        idx = np.clip(idx, 0, n_bins - 1)
        return np.bincount(idx, minlength=n_bins) / len(values)

    correct = [float(e) for e, ok in records if ok]
    incorrect = [float(e) for e, ok in records if not ok]
    return EntropyHistogram(edges, fractions(correct), fractions(incorrect))


@dataclass(frozen=True)
class ComparisonRow:
    dataset: str
    bayes_accuracy: float
    baseline_accuracy: float
    accuracy_delta: float
    bayes_referral_rate: float
    bayes_mean_entropy_correct: float | None
    bayes_mean_entropy_incorrect: float | None


def compare_report(
    bayes: list[EvalReport], baseline: list[EvalReport], dataset_names: list[str]
) -> list[ComparisonRow]:
    """Tabulate both heads per dataset, Table-style, one row per dataset."""
    if not len(bayes) == len(baseline) == len(dataset_names):
        raise ValueError(
            f"mismatched lists: {len(bayes)} bayes, {len(baseline)} baseline, "
            f"{len(dataset_names)} names"
        )
    rows = []
    for name, b, c in zip(dataset_names, bayes, baseline):
        rows.append(
            ComparisonRow(
                dataset=name,
                bayes_accuracy=b.accuracy,
                baseline_accuracy=c.accuracy,
                accuracy_delta=b.accuracy - c.accuracy,
                bayes_referral_rate=b.referral_rate,
                bayes_mean_entropy_correct=b.mean_entropy_correct,
                bayes_mean_entropy_incorrect=b.mean_entropy_incorrect,
            )
        )
    return rows


def comparison_csv(rows: list[ComparisonRow], config: dict | None = None) -> str:
    lines = echo_header(config)
    lines.append(",".join(f.name for f in fields(ComparisonRow)))
    for r in rows:
        cells = ("" if v is None else v if isinstance(v, str) else repr(v) for v in asdict(r).values())
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def kde_csv(curve: KdeCurve, config: dict | None = None) -> str:
    lines = echo_header(config, bandwidth=repr(curve.bandwidth))
    lines.append("grid,density")
    for g, d in zip(curve.grid, curve.density):
        lines.append(f"{g!r},{d!r}")
    return "\n".join(lines) + "\n"


def entropy_histogram_csv(hist: EntropyHistogram, config: dict | None = None) -> str:
    groups = {"correct": hist.correct_fraction, "incorrect": hist.incorrect_fraction}
    lines = echo_header(config, **{f"{g}_group": "absent" for g, f in groups.items() if f is None})
    lines.append("bin_low,bin_high,correct_fraction,incorrect_fraction")
    for i in range(hist.bin_edges.shape[0] - 1):
        correct = "" if hist.correct_fraction is None else repr(float(hist.correct_fraction[i]))
        wrong = "" if hist.incorrect_fraction is None else repr(float(hist.incorrect_fraction[i]))
        lines.append(f"{hist.bin_edges[i]!r},{hist.bin_edges[i + 1]!r},{correct},{wrong}")
    return "\n".join(lines) + "\n"

"""Dataset-level evaluation and uncertainty analytics.

``predict_records`` is the one prediction loop: per fixed block of rows,
one kernel call (``inference.stacked_probs``, softmax of the linear output
layer's logits) and one block summary, then one record per row.  On top
of it sit accuracy/confusion reports, Gaussian-kernel KDE curves of
uncertainty values, entropy-bin histograms split by correctness, and the
bayesian-vs-baseline comparison table.  Reports and records serialize from
their dataclass fields; reading one back raises ValueError naming the
field for a document that is not an object, lacks a field, holds one of
the wrong type, shape or range, holds a record that contradicts itself or
no record, or holds totals other than ``evaluate`` makes of its records,
so a malformed report is an input error.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import FeatureDataset, echo_header
from .inference import (
    CI_LEVEL,
    PredictiveResult,
    ReferralThresholds,
    _require_simplex,
    point_weights,
    posterior_draws,
    referral_decision,
    stacked_probs,
    summarize_block,
)
from .network import HeadModel
from .rng import RngStream

REPORT_SCHEMA_VERSION = 1
KDE_GRID_POINTS = 401  # points of the uniform grid a density is evaluated on

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


_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool, "list": list}


def _field_values(cls, d) -> dict:
    """``d``'s value of each field of ``cls``; ValueError when ``d`` is not an object, lacks
    a field, or holds one of another JSON type than the field's annotation (numbers are not bools)."""
    if not isinstance(d, dict):
        raise ValueError(f"{cls.__name__} document is not a JSON object")
    try:
        values = {name: d[name] for name in cls.__dataclass_fields__}
    except KeyError as e:
        raise ValueError(f"{cls.__name__} document lacks field {e.args[0]!r}") from None
    for f in fields(cls):
        kind, v = _JSON_TYPES.get(f.type.split("[")[0].removesuffix(" | None")), values[f.name]
        if kind is None or v is None and f.type.endswith("| None"):
            continue  # the confusion array is checked by EvalReport.from_dict
        if not isinstance(v, kind) or isinstance(v, bool) and kind is not bool:
            raise ValueError(f"{cls.__name__} field {f.name!r} must be {f.type}, got {type(v).__name__}")
    return values


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
        """The fields by name; the lists are shared, not copied, as serializing only reads them."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict, n_classes: int) -> "PredictionRecord":
        """The record of an ``n_classes``-class report; ValueError naming a class index
        outside [0, n_classes), a per-class list of another length or with an entry that is not a
        finite number, a negative or non-finite entropy or uncertainty, a ``correct`` that is not
        ``label == predicted_class``, an action other than accept or refer, a ``mean_probs`` that is
        not a probability vector or whose first argmax is not ``predicted_class``, a negative
        variance, or a ``ci_low`` above ``ci_high`` by more than 1e-12."""
        record = cls(**_field_values(cls, d))
        for name in ("label", "predicted_class"):
            if not 0 <= (v := getattr(record, name)) < n_classes:
                raise ValueError(f"{cls.__name__} field {name!r} must lie in [0, {n_classes}), got {v}")
        for name in ("mean_probs", "var_probs", "ci_low", "ci_high"):
            if len(v := getattr(record, name)) != n_classes:
                raise ValueError(f"{cls.__name__} field {name!r} must hold {n_classes} values, got {len(v)}")
            if not all(type(x) in (int, float) and math.isfinite(x) for x in v):  # type(): bools are ints
                raise ValueError(f"{cls.__name__} field {name!r} must hold finite numbers, got {v}")
        for name in ("entropy_bits", "uncertainty"):
            if not 0.0 <= (v := getattr(record, name)) < math.inf:  # NaN fails the comparison too
                raise ValueError(f"{cls.__name__} field {name!r} must be finite and nonnegative, got {v}")
        if record.correct != (record.label == record.predicted_class):
            raise ValueError(f"{cls.__name__} field 'correct' must equal label == predicted_class")
        if record.action not in ("accept", "refer"):
            raise ValueError(f"{cls.__name__} field 'action' must be accept or refer, got {record.action!r}")
        probs = np.array(record.mean_probs, dtype=np.float64)
        _require_simplex(probs, f"{cls.__name__} field 'mean_probs' must be a probability vector, got {record.mean_probs}")
        if record.predicted_class != int(np.argmax(probs)):
            raise ValueError(f"{cls.__name__} field 'predicted_class' must be the first argmax of mean_probs")
        if min(record.var_probs) < 0.0:
            raise ValueError(f"{cls.__name__} field 'var_probs' must be nonnegative, got {record.var_probs}")
        if any(lo - hi > 1e-12 for lo, hi in zip(record.ci_low, record.ci_high)):
            raise ValueError(f"{cls.__name__} field 'ci_low' must not exceed 'ci_high', got {record.ci_low}")
        return record


@dataclass
class EvalReport:
    """A dataset's evaluation; the fields are declared in the order ``report.json`` writes them."""

    dataset_name: str
    n_classes: int
    mc_samples: int
    accuracy: float
    referral_rate: float
    mean_entropy_correct: float | None
    mean_entropy_incorrect: float | None
    confusion: np.ndarray  # (C, C) counts, rows = true class
    records: list[PredictionRecord]

    def to_dict(self, config: dict | None = None) -> dict:
        d = {
            "schema_version": REPORT_SCHEMA_VERSION,
            **{f.name: getattr(self, f.name) for f in fields(self)},
            "confusion": self.confusion.tolist(),
            "records": [r.to_dict() for r in self.records],
        }
        if config is not None:
            d["config"] = config
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        if isinstance(d, dict) and (version := d.get("schema_version")) != REPORT_SCHEMA_VERSION:
            raise ValueError(f"unsupported report schema_version {version}; expected {REPORT_SCHEMA_VERSION}")
        values = _field_values(cls, d)
        for name in ("accuracy", "referral_rate"):
            if not 0.0 <= values[name] <= 1.0:
                raise ValueError(f"EvalReport field {name!r} must lie in [0, 1], got {values[name]}")
        if values["mc_samples"] < 1:
            raise ValueError(f"EvalReport field 'mc_samples' must be >= 1, got {values['mc_samples']}")
        c = values["n_classes"]
        try:
            confusion = np.asarray(values["confusion"])
        except ValueError:  # ragged
            confusion = None
        if confusion is None or confusion.shape != (c, c) or confusion.dtype.kind != "i":
            raise ValueError(f"EvalReport field 'confusion' must be an integer ({c}, {c}) matrix")
        if (confusion < 0).any():
            raise ValueError("EvalReport field 'confusion' holds a negative count")
        values["confusion"] = confusion.astype(np.int64)
        values["records"] = [PredictionRecord.from_dict(r, c) for r in values["records"]]
        for name, expected in _totals(values["records"], c).items():
            if not np.array_equal(values[name], expected):  # None equals only None
                raise ValueError(f"EvalReport field {name!r} is {np.asarray(values[name]).tolist()}, "
                                 f"but its records give {np.asarray(expected).tolist()}")
        return cls(**values)


def _totals(records: list[PredictionRecord], n_classes: int) -> dict:
    """The report fields that ``records`` determine: accuracy, referral rate, the mean entropy of
    the correct and of the incorrect records (None for an empty group), and the confusion counts."""
    if not records:
        raise ValueError("EvalReport field 'records' must hold at least one record")
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    for r in records:
        confusion[r.label, r.predicted_class] += 1
    correct_h = [r.entropy_bits for r in records if r.correct]
    incorrect_h = [r.entropy_bits for r in records if not r.correct]
    return {
        "accuracy": float(np.trace(confusion)) / len(records),
        "referral_rate": sum(r.action == "refer" for r in records) / len(records),
        "mean_entropy_correct": float(np.mean(correct_h)) if correct_h else None,
        "mean_entropy_incorrect": float(np.mean(incorrect_h)) if incorrect_h else None,
        "confusion": confusion,
    }


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
    ci_level: float = CI_LEVEL,
) -> list[PredictionRecord]:
    """One record per row, in dataset order, through the batched kernel and
    the block summary in fixed blocks; each equals the record of ``predict_mc`` (n draws shared
    by every row) or ``predict_deterministic`` on its row alone."""
    if len(dataset) == 0:
        raise ValueError("cannot predict an empty dataset")
    if dataset.n_classes > model.n_classes:
        raise ValueError(f"dataset label {dataset.n_classes - 1} is outside the model's {model.n_classes} classes")
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
    ci_level: float = CI_LEVEL,
) -> EvalReport:
    """``predict_records`` plus dataset aggregation."""
    records = predict_records(model, dataset, n, thresholds, stream, ci_level)
    return EvalReport(
        dataset_name=dataset.name,
        n_classes=model.n_classes,
        mc_samples=n,
        records=records,
        **_totals(records, model.n_classes),
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


def kde(values, bandwidth: float | None = None) -> KdeCurve:
    """Gaussian-kernel density on a uniform grid of ``KDE_GRID_POINTS`` over [min-4h, max+4h]."""
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
    grid = np.linspace(v.min() - 4.0 * h, v.max() + 4.0 * h, KDE_GRID_POINTS)
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
    """The echo block, then one row per dataset; a cell that holds a comma or a quote is quoted."""
    text = io.StringIO()
    text.writelines(line + "\n" for line in echo_header(config))
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(f.name for f in fields(ComparisonRow))
    for r in rows:
        writer.writerow("" if v is None else v if isinstance(v, str) else repr(v) for v in asdict(r).values())
    return text.getvalue()


def kde_csv(curve: KdeCurve, config: dict | None = None) -> str:
    lines = echo_header(config, bandwidth=repr(curve.bandwidth))
    lines.append("grid,density")
    for g, d in zip(curve.grid.tolist(), curve.density.tolist()):  # Python floats: numpy 2 reprs its scalars
        lines.append(f"{g!r},{d!r}")
    return "\n".join(lines) + "\n"


def entropy_histogram_csv(hist: EntropyHistogram, config: dict | None = None) -> str:
    groups = {"correct": hist.correct_fraction, "incorrect": hist.incorrect_fraction}
    lines = echo_header(config, **{f"{g}_group": "absent" for g, f in groups.items() if f is None})
    lines.append("bin_low,bin_high,correct_fraction,incorrect_fraction")
    edges = hist.bin_edges.tolist()
    for i in range(len(edges) - 1):
        correct = "" if hist.correct_fraction is None else repr(float(hist.correct_fraction[i]))
        wrong = "" if hist.incorrect_fraction is None else repr(float(hist.incorrect_fraction[i]))
        lines.append(f"{edges[i]!r},{edges[i + 1]!r},{correct},{wrong}")
    return "\n".join(lines) + "\n"

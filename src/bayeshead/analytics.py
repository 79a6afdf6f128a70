"""Dataset-level evaluation and uncertainty analytics.

``predict_records`` is the one prediction loop: per block of 256 rows
(``_BLOCK_ROWS``), one kernel call (``inference.stacked_probs``, softmax
of the linear output layer's logits) and one block summary
(``inference.block_summary``), from whose stacked arrays the block's
records are built with one ``tolist`` per statistic and the referral rule
applied to the whole block.  On top of it sit accuracy/confusion reports,
Gaussian-kernel KDE curves of uncertainty values, entropy-bin histograms
split by correctness, and the bayesian-vs-baseline comparison table.
Reports and records serialize from their dataclass fields; reading one
back raises ValueError naming the field for a document that is not an
object, lacks a field, holds one of the wrong type, shape or range, holds
a record that contradicts itself or no record, or holds totals other than
``evaluate`` makes of its records, so a malformed report is an input
error.  Each record is read through ``PredictionRecord.from_dict`` in
document order, so the first record that fails is named with the message
its own check gives.
"""

from __future__ import annotations

import io
import sys
from dataclasses import astuple, dataclass, fields
from functools import lru_cache
from operator import attrgetter

import numpy as np

from .data import FeatureDataset, write_csv
from .inference import (
    CI_LEVEL,
    BlockSummary,
    ReferralThresholds,
    block_summary,
    posterior_draws,
    referral_rule,
    stacked_probs,
)
from .network import HeadModel, point_weights
from .rng import RngStream

REPORT_SCHEMA_VERSION = 1
KDE_GRID_POINTS = 401  # points of the uniform grid a density is evaluated on

_BLOCK_ROWS = 256  # rows per kernel call; its (256, n, C) float64 draws stay under _alloc.MMAP_THRESHOLD
# while n * C < 512, and every bit is the same at any block size

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


@lru_cache(maxsize=None)
def _field_kinds(cls) -> tuple:
    """(name, JSON type, whether None passes, annotation) of each field of ``cls`` that
    ``_field_values`` checks, resolved once per class; the confusion array, of no JSON type
    here, is checked by EvalReport.from_dict."""
    kinds = ((f, _JSON_TYPES.get(f.type.split("[")[0].removesuffix(" | None"))) for f in fields(cls))
    return tuple((f.name, kind, f.type.endswith("| None"), f.type) for f, kind in kinds if kind is not None)


def _field_values(cls, d) -> dict:
    """``d``'s value of each field of ``cls``; ValueError when ``d`` is not an object, lacks
    a field, or holds one of another JSON type than the field's annotation (numbers are not bools)."""
    if not isinstance(d, dict):
        raise ValueError(f"{cls.__name__} document is not a JSON object")
    try:
        values = {name: d[name] for name in cls.__dataclass_fields__}
    except KeyError as e:
        raise ValueError(f"{cls.__name__} document lacks field {e.args[0]!r}") from None
    for name, kind, nullable, annotation in _field_kinds(cls):
        v = values[name]
        if (not isinstance(v, kind) or isinstance(v, bool) and kind is not bool) and not (v is None and nullable):
            raise ValueError(f"{cls.__name__} field {name!r} must be {annotation}, got {type(v).__name__}")
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
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d: dict, n_classes: int) -> "PredictionRecord":
        """The record of an ``n_classes``-class report; ValueError as ``check`` gives it."""
        record = cls(**_field_values(cls, d))
        record.check(n_classes)
        return record

    def check(self, n_classes: int) -> None:
        """ValueError naming a class index outside [0, n_classes), a per-class list of another length
        or with an entry that is not a finite number, a negative or non-finite entropy or uncertainty,
        a ``correct`` that is not ``label == predicted_class``, an action other than accept or refer, a
        ``mean_probs`` that is not a probability vector or whose first argmax is not
        ``predicted_class``, a negative variance, a ``ci_low`` above ``ci_high`` by more than 1e-12, or an
        ``uncertainty`` other than the largest variance; each is checked in that order."""
        name = type(self).__name__
        for field in ("label", "predicted_class"):
            if not 0 <= (v := getattr(self, field)) < n_classes:
                raise ValueError(f"{name} field {field!r} must lie in [0, {n_classes}), got {v}")
        for field in _CLASS_LISTS:
            if len(v := getattr(self, field)) != n_classes:
                raise ValueError(f"{name} field {field!r} must hold {n_classes} values, got {len(v)}")
            if not all(type(x) in (int, float) and abs(x) <= _FLOAT_MAX for x in v):  # type(): bools are ints
                raise ValueError(f"{name} field {field!r} must hold finite numbers, got {v}")
        for field in ("entropy_bits", "uncertainty"):
            if not 0.0 <= (v := getattr(self, field)) <= _FLOAT_MAX:  # NaN fails it; an int may exceed float64
                raise ValueError(f"{name} field {field!r} must be finite and nonnegative, got {v}")
        if self.correct != (self.label == self.predicted_class):
            raise ValueError(f"{name} field 'correct' must equal label == predicted_class")
        if self.action not in _ACTIONS:
            raise ValueError(f"{name} field 'action' must be accept or refer, got {self.action!r}")
        p = [float(x) for x in self.mean_probs]
        if not (min(p) >= -1e-12 and abs(sum(p) - 1.0) <= 1e-6):  # inference's simplex tolerances
            raise ValueError(f"{name} field 'mean_probs' must be a probability vector, got {self.mean_probs}")
        if self.predicted_class != p.index(max(p)):  # the first maximum, as np.argmax
            raise ValueError(f"{name} field 'predicted_class' must be the first argmax of mean_probs")
        if min(self.var_probs) < 0.0:
            raise ValueError(f"{name} field 'var_probs' must be nonnegative, got {self.var_probs}")
        if any(lo - hi > 1e-12 for lo, hi in zip(self.ci_low, self.ci_high)):
            raise ValueError(f"{name} field 'ci_low' must not exceed 'ci_high', got {self.ci_low}")
        if self.uncertainty != max(self.var_probs):  # evaluate writes both from one var.max(axis=1)
            raise ValueError(f"{name} field 'uncertainty' must be the largest of var_probs, got {self.uncertainty}")


_CLASS_LISTS = ("mean_probs", "var_probs", "ci_low", "ci_high")
_FLOAT_MAX = sys.float_info.max  # a JSON int above it is no finite float64
_ACTIONS = ("accept", "refer")


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
        if isinstance(d, dict) and type(version) is not int:  # true and 1.0 equal 1 too
            raise ValueError(f"EvalReport field 'schema_version' must be int, got {type(version).__name__}")
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


_TOTALS_FIELDS = attrgetter("label", "predicted_class", "entropy_bits", "correct", "action")


def _totals(records: list[PredictionRecord], n_classes: int) -> dict:
    """The report fields that ``records`` determine: accuracy, referral rate, the mean entropy of
    the correct and of the incorrect records (None for an empty group), and the confusion counts."""
    if not records:
        raise ValueError("EvalReport field 'records' must hold at least one record")
    label, predicted, entropy, correct, action = zip(*map(_TOTALS_FIELDS, records))
    cells = np.array(label, dtype=np.int64) * n_classes + np.array(predicted, dtype=np.int64)
    confusion = np.bincount(cells, minlength=n_classes * n_classes).reshape(n_classes, n_classes)
    entropy, correct = np.array(entropy, dtype=np.float64), np.array(correct, dtype=bool)
    return {
        "accuracy": float(np.trace(confusion)) / len(records),
        "referral_rate": action.count("refer") / len(records),
        "mean_entropy_correct": float(np.mean(entropy[correct])) if correct.any() else None,
        "mean_entropy_incorrect": float(np.mean(entropy[~correct])) if not correct.all() else None,
        "confusion": confusion,
    }


def _block_records(ids: list[str], labels: list[int], s: BlockSummary, thresholds) -> list[PredictionRecord]:
    """The records of one block's rows, from its stacked summary: one ``tolist`` per statistic."""
    uncertain, unconfident = referral_rule(s.uncertainty, s.mean_probs.max(axis=1),
                                           thresholds.uncertainty, thresholds.confidence)
    actions = np.where(uncertain | unconfident, "refer", "accept").tolist()
    columns = (s.mean_probs.tolist(), s.var_probs.tolist(), s.entropy_bits, s.ci_low.tolist(),
               s.ci_high.tolist(), s.uncertainty.tolist(), actions)
    return [
        PredictionRecord(i, y, k, k == y, *row)
        for i, y, k, *row in zip(ids, labels, s.predicted_class, *columns)
    ]


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
    by every row) or ``predict_deterministic`` on its row alone, with the action of
    ``referral_decision``."""
    if len(dataset) == 0:
        raise ValueError("cannot predict an empty dataset")
    if dataset.n_classes > model.n_classes:
        raise ValueError(f"dataset label {dataset.n_classes - 1} is outside the model's {model.n_classes} classes")
    w, b = posterior_draws(model, n, stream) if model.is_bayesian else point_weights(model)
    records = []
    for start in range(0, len(dataset), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        summary = block_summary(stacked_probs(model, dataset.features[rows], w, b), ci_level)
        records += _block_records(dataset.ids[rows], dataset.labels[rows].tolist(), summary, thresholds)
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
    """Tabulate both heads per dataset, Table-style, one row per dataset; ValueError when a
    bayesian report and its baseline do not hold the same record ids in the same order, or do
    but name different datasets (a shifted copy keeps its source's ids)."""
    if not len(bayes) == len(baseline) == len(dataset_names):
        raise ValueError(
            f"mismatched lists: {len(bayes)} bayes, {len(baseline)} baseline, "
            f"{len(dataset_names)} names"
        )
    rows = []
    for i, (name, b, c) in enumerate(zip(dataset_names, bayes, baseline), start=1):
        if [r.id for r in b.records] != [r.id for r in c.records]:
            raise ValueError(f"bayes report {i} ({b.dataset_name!r}) and baseline report {i} "
                             f"({c.dataset_name!r}) hold different rows")
        if b.dataset_name != c.dataset_name:
            raise ValueError(f"bayes report {i} ({b.dataset_name!r}) and baseline report {i} "
                             f"({c.dataset_name!r}) name different datasets; a report is named by eval's "
                             "--dataset-name or its CSV's stem, so evaluate both heads under one name")
        rows.append(ComparisonRow(name, b.accuracy, c.accuracy, b.accuracy - c.accuracy, b.referral_rate,
                                  b.mean_entropy_correct, b.mean_entropy_incorrect))
    return rows


def comparison_csv(rows: list[ComparisonRow], config: dict | None = None) -> str:
    """The echo block, then one row per dataset; a cell that holds a comma or a quote is quoted."""
    write_csv(text := io.StringIO(), [f.name for f in fields(ComparisonRow)], map(astuple, rows), config)
    return text.getvalue()


def kde_csv(curve: KdeCurve, config: dict | None = None) -> str:
    rows = zip(curve.grid.tolist(), curve.density.tolist())
    write_csv(text := io.StringIO(), ["grid", "density"], rows, config, bandwidth=curve.bandwidth)
    return text.getvalue()


def entropy_histogram_csv(hist: EntropyHistogram, config: dict | None = None) -> str:
    groups = {"correct": hist.correct_fraction, "incorrect": hist.incorrect_fraction}
    edges = hist.bin_edges.tolist()
    columns = [[None] * (len(edges) - 1) if f is None else f.tolist() for f in groups.values()]
    absent = {f"{g}_group": "absent" for g, f in groups.items() if f is None}
    write_csv(text := io.StringIO(), ["bin_low", "bin_high", "correct_fraction", "incorrect_fraction"],
              zip(edges[:-1], edges[1:], *columns), config, **absent)
    return text.getvalue()

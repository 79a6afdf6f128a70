"""Dataset ingestion, balancing, splitting, synthetic task generation, and the one CSV encoder and JSON codec.

The interchange format is a CSV with header ``id,label,f0,f1,...``:
a ``label`` column of nonnegative class ids is required, an ``id`` column
is optional (the row numbers are the ids without one), and every other
column is a float64 feature.  Synthetic
Gaussian-blob tasks plus a feature-space shift transform emulate the
in-distribution / shifted / out-of-distribution evaluation regimes.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataFormatError
from .rng import RngStream


@dataclass
class FeatureDataset:
    features: np.ndarray  # (N, D) float64
    labels: np.ndarray  # (N,) int64 in [0, n_classes)
    ids: list[str]
    name: str = "dataset"

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.ids = [str(i) for i in self.ids]
        if self.features.ndim != 2 or self.features.shape[1] < 1:
            raise ValueError("features must be a (N, D) matrix with D >= 1")
        n = self.features.shape[0]
        if self.labels.shape != (n,) or len(self.ids) != n:
            raise ValueError("features, labels, and ids must agree on N")
        if n and self.labels.min() < 0:
            raise ValueError("labels must be nonnegative class ids")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self) else 0

    def take(self, indices, name: str | None = None) -> "FeatureDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return FeatureDataset(
            self.features[idx],
            self.labels[idx],
            [self.ids[i] for i in idx],
            name if name is not None else self.name,
        )

    def class_counts(self) -> dict[int, int]:
        return {int(c): int(n) for c, n in zip(*np.unique(self.labels, return_counts=True))}


@dataclass(frozen=True)
class ShiftConfig:
    """Feature-space distribution shift: rotate, then noise, then translate."""

    noise_sigma: float = 0.0
    rotation_angle: float = 0.0  # radians, applied to the first two coordinates
    ood_offset: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.noise_sigma < 0 or not np.isfinite(self.noise_sigma):
            raise ValueError("noise_sigma must be finite and >= 0")
        if not np.isfinite(self.rotation_angle):
            raise ValueError("rotation_angle must be finite")
        if self.ood_offset is not None and not np.all(np.isfinite(self.ood_offset)):
            raise ValueError("ood_offset must be finite")


def load_csv(path, name: str | None = None) -> FeatureDataset:
    """Read a dataset CSV: a required ``label`` column, an optional ``id`` column (else the row
    numbers are the ids), every other column a feature; no name may repeat in the header.
    '#' comment lines and blank lines are skipped."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        # a record whose raw first line (of index start) begins with '#' is a comment and parses as a
        # blank one, so a quoted "#b" cell is data and a comment's quotes open no field
        start, rows = 0, []
        reader = csv.reader("\n" if i == start and line.lstrip().startswith("#") else line
                            for i, line in enumerate(fh))
        try:
            for row in reader:
                if row:
                    rows.append((start + 1, row))  # named by the line it starts on
                start = reader.line_num
        except csv.Error as e:  # a cell over csv.field_size_limit(), say
            raise DataFormatError(f"{path}: row {start + 1}: {e}") from None
        except UnicodeDecodeError as e:  # the text layer decodes ahead of the reader, so no row is named
            raise DataFormatError(f"{path}: {e}") from None
    if not rows:
        raise DataFormatError(f"{path}: no header row")
    header = [c.strip() for c in rows[0][1]]
    if len(set(header)) < len(header):
        repeated = next(c for i, c in enumerate(header) if c in header[:i])
        raise DataFormatError(f"{path}: column {repeated!r} appears more than once in the header")
    body = rows[1:]
    if not body:
        raise DataFormatError(f"{path}: no data rows")

    if "label" not in header:
        raise DataFormatError(f"{path}: missing label column 'label'")
    label_idx = header.index("label")
    id_idx = header.index("id") if "id" in header else None
    feat_idx = [i for i in range(len(header)) if i != label_idx and i != id_idx]
    if not feat_idx:
        raise DataFormatError(f"{path}: no feature columns")

    features, labels, ids = [], [], []
    for rownum, (lineno, row) in enumerate(body):  # a row's checks in order; the first defect raises
        if len(row) != len(header):
            raise DataFormatError(
                f"{path}: row {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        try:
            feats = [float(row[i]) for i in feat_idx]
        except ValueError:
            bad = next(i for i in feat_idx if not _is_float(row[i]))
            raise DataFormatError(
                f"{path}: row {lineno}: non-numeric feature value {row[bad]!r} in column {header[bad]!r}"
            ) from None
        try:
            label = int(row[label_idx])
        except ValueError:
            raise DataFormatError(
                f"{path}: row {lineno}: unknown label value {row[label_idx]!r}"
            ) from None
        if not 0 <= label < 2**63:  # a class id FeatureDataset can hold as int64
            raise DataFormatError(f"{path}: row {lineno}: unknown label value {label}")
        if not all(map(math.isfinite, feats)):
            raise DataFormatError(f"{path}: row {lineno}: non-finite feature value")
        features.append(feats)
        labels.append(label)
        ids.append(row[id_idx] if id_idx is not None else str(rownum))
    return FeatureDataset(features, labels, ids, name if name is not None else path.stem)


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def write_csv(fh, header, rows, config: dict | None = None, **extra) -> None:
    """The one CSV encoder: a '# key = value' line per setting of ``config`` and then ``extra``,
    then the header and ``rows``, each cell written as ``_CELL`` says for its type.  A row whose
    first cell begins with '#' after spaces is quoted whole, so ``load_csv`` reads it as data."""
    echo = [f"# {k} = {v}" for k, v in [*(config or {}).items(), *extra.items()]]
    for line in echo:
        if "\n" in line or "\r" in line:
            raise ValueError(f"an echoed setting holds a line break: {line!r}")
    fh.writelines(line + "\n" for line in echo)
    plain = csv.writer(fh, lineterminator="\n")
    quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in chain([header], rows):
        try:
            cells = [_CELL[type(v)](v) for v in row]
        except KeyError as e:  # a bool, or a numpy scalar, whose repr numpy 2 wraps
            raise TypeError(f"a CSV cell must be None, str, int or float, not {e.args[0].__name__}") from None
        (quoted if cells and cells[0].lstrip().startswith("#") else plain).writerow(cells)


_CELL = {type(None): lambda v: "", str: str, int: repr, float: repr}  # a str is quoted by csv.writer if need be


@contextmanager
def atomic_write(path):
    """A text handle on a temp file beside ``path`` that replaces ``path`` once the block completes;
    if the block raises, the temp file is removed and an earlier ``path`` stays as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, *docs) -> None:
    """``json.dumps`` of each of ``docs``, with json's defaults, one per line, through ``atomic_write``."""
    with atomic_write(path) as fh:
        fh.writelines(json.dumps(doc) + "\n" for doc in docs)


def read_json(path) -> dict:
    """The JSON object in ``path``, read as UTF-8 less a leading BOM; a ValueError naming the file
    for text that is not JSON, nesting too deep for the parser, or a top level that is not an object."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (ValueError, RecursionError) as e:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ValueError(f"{path}: {e}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a JSON object")
    return doc


def save_csv(dataset: FeatureDataset, path) -> None:
    """Write the interchange CSV; float repr guarantees load/save roundtrips."""
    labels, features = dataset.labels.tolist(), dataset.features.tolist()
    with atomic_write(path) as fh:
        write_csv(fh, ["id", "label", *(f"f{i}" for i in range(dataset.feature_dim))],
                  ([dataset.ids[i], labels[i], *features[i]] for i in range(len(dataset))))


def balance_downsample(dataset: FeatureDataset, seed: int) -> FeatureDataset:
    """Reduce every class to the minority count by seeded sampling without
    replacement, then reshuffle deterministically."""
    counts = dataset.class_counts()
    if len(counts) < 2:
        raise ValueError("balancing needs at least 2 classes present")
    if dataset.n_classes != len(counts):
        missing = sorted(set(range(dataset.n_classes)) - set(counts))
        raise ValueError(f"class {missing[0]} has zero samples")
    target = min(counts.values())
    stream = RngStream(seed).derive(0)
    kept: list[np.ndarray] = []
    for cls in sorted(counts):
        cls_idx = np.flatnonzero(dataset.labels == cls)
        order = stream.permutation(cls_idx.shape[0])
        kept.append(cls_idx[order[:target]])
    pooled = np.concatenate(kept)
    pooled = pooled[stream.permutation(pooled.shape[0])]
    return dataset.take(pooled)


def split(
    dataset: FeatureDataset, fractions: Sequence[float], seed: int
) -> tuple[FeatureDataset, FeatureDataset]:
    """Stratified (train, test) split by per-class fractions."""
    if len(fractions) != 2 or any(f < 0 for f in fractions):
        raise ValueError("fractions must be two nonnegative values")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    stream = RngStream(seed).derive(1)
    train_parts, test_parts = [], []
    for cls in sorted(dataset.class_counts()):
        cls_idx = np.flatnonzero(dataset.labels == cls)
        order = stream.permutation(cls_idx.shape[0])
        n_train = int(round(fractions[0] * cls_idx.shape[0]))
        train_parts.append(cls_idx[order[:n_train]])
        test_parts.append(cls_idx[order[n_train:]])
    return _assemble_split(dataset, train_parts, test_parts, stream)


def split_counts(
    dataset: FeatureDataset, test_per_class: int, seed: int
) -> tuple[FeatureDataset, FeatureDataset]:
    """Fixed-count protocol: exactly ``test_per_class`` test rows per class."""
    if test_per_class < 0:
        raise ValueError("test_per_class must be >= 0")
    stream = RngStream(seed).derive(1)
    train_parts, test_parts = [], []
    for cls, count in sorted(dataset.class_counts().items()):
        if test_per_class > count:
            raise ValueError(f"class {cls} has {count} samples, fewer than {test_per_class}")
        cls_idx = np.flatnonzero(dataset.labels == cls)
        order = stream.permutation(cls_idx.shape[0])
        test_parts.append(cls_idx[order[:test_per_class]])
        train_parts.append(cls_idx[order[test_per_class:]])
    return _assemble_split(dataset, train_parts, test_parts, stream)


def _assemble_split(dataset, train_parts, test_parts, stream):
    train_idx = np.concatenate(train_parts) if train_parts else np.empty(0, np.int64)
    test_idx = np.concatenate(test_parts) if test_parts else np.empty(0, np.int64)
    for part, part_name in ((train_idx, "train"), (test_idx, "test")):
        got = set(dataset.labels[part].tolist())
        empty = sorted(set(dataset.class_counts()) - got)
        if empty:
            warnings.warn(f"{part_name} split received no samples of class {empty[0]}")
    train_idx = train_idx[stream.permutation(train_idx.shape[0])]
    test_idx = test_idx[stream.permutation(test_idx.shape[0])]
    return (
        dataset.take(train_idx, f"{dataset.name}-train"),
        dataset.take(test_idx, f"{dataset.name}-test"),
    )


def synth_blobs(
    n_per_class: int,
    means: Sequence[Sequence[float]],
    sigma: float,
    seed: int,
    name: str = "blobs",
) -> FeatureDataset:
    """Isotropic Gaussian clusters, one class per mean."""
    if len(means) < 2:
        raise ValueError("need at least 2 class means")
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    dim = len(means[0])
    if dim < 1 or any(len(m) != dim for m in means):
        raise ValueError("class means must share a common dimension >= 1")
    stream = RngStream(seed).derive(2)
    features = np.empty((n_per_class * len(means), dim))
    labels = np.empty(n_per_class * len(means), dtype=np.int64)
    for cls, mean in enumerate(means):
        block = slice(cls * n_per_class, (cls + 1) * n_per_class)
        noise = stream.normal(n_per_class * dim).reshape(n_per_class, dim)
        features[block] = np.asarray(mean, dtype=np.float64) + sigma * noise
        labels[block] = cls
    ids = [f"{name}-{i}" for i in range(features.shape[0])]
    return FeatureDataset(features, labels, ids, name)


def synth_shift(dataset: FeatureDataset, config: ShiftConfig, seed: int) -> FeatureDataset:
    """Covariate-shifted copy: labels preserved, features rotated then
    perturbed with Gaussian noise then translated."""
    feats = dataset.features.copy()
    if config.rotation_angle != 0.0:
        if dataset.feature_dim < 2:
            raise ValueError("rotation needs at least 2 feature dimensions")
        # rotation acts on the first two coordinates only
        c, s = np.cos(config.rotation_angle), np.sin(config.rotation_angle)
        x0, x1 = feats[:, 0].copy(), feats[:, 1].copy()
        feats[:, 0] = c * x0 - s * x1
        feats[:, 1] = s * x0 + c * x1
    if config.noise_sigma > 0.0:
        stream = RngStream(seed).derive(3)
        noise = stream.normal(feats.size).reshape(feats.shape)
        feats = feats + config.noise_sigma * noise
    if config.ood_offset is not None:
        offset = np.asarray(config.ood_offset, dtype=np.float64)
        if offset.shape != (dataset.feature_dim,):
            raise ValueError("ood_offset length must equal the feature dimension")
        feats = feats + offset
    return FeatureDataset(feats, dataset.labels.copy(), list(dataset.ids), f"{dataset.name}-shifted")

"""Dataset ingestion, balancing, splitting, and synthetic task generation.

The interchange format is a CSV with header ``id,label,f0,f1,...``;
features are float64, labels are nonnegative class ids.  Synthetic
Gaussian-blob tasks plus a feature-space shift transform emulate the
in-distribution / shifted / out-of-distribution evaluation regimes.
"""

from __future__ import annotations

import csv
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
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
class CsvSchema:
    """Column mapping for dataset files; None feature_columns = everything else."""

    label_column: str = "label"
    id_column: str | None = "id"
    feature_columns: tuple[str, ...] | None = None


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


def load_csv(path, schema: CsvSchema = CsvSchema(), name: str | None = None) -> FeatureDataset:
    """Read a dataset CSV; '#' comment lines and blank lines are skipped."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [
            (lineno, row)
            for lineno, row in enumerate(csv.reader(fh), start=1)
            if row and not row[0].lstrip().startswith("#")
        ]
    if not rows:
        raise DataFormatError(f"{path}: no header row")
    header = [c.strip() for c in rows[0][1]]
    body = rows[1:]
    if not body:
        raise DataFormatError(f"{path}: no data rows")

    if schema.label_column not in header:
        raise DataFormatError(f"{path}: missing label column {schema.label_column!r}")
    label_idx = header.index(schema.label_column)
    id_idx = None
    if schema.id_column is not None and schema.id_column in header:
        id_idx = header.index(schema.id_column)
    if schema.feature_columns is not None:
        missing = [c for c in schema.feature_columns if c not in header]
        if missing:
            raise DataFormatError(f"{path}: missing feature columns {missing}")
        feat_idx = [header.index(c) for c in schema.feature_columns]
    else:
        feat_idx = [
            i for i, c in enumerate(header) if i != label_idx and i != id_idx
        ]
    if not feat_idx:
        raise DataFormatError(f"{path}: no feature columns")

    features, labels, ids = [], [], []
    for rownum, (lineno, row) in enumerate(body):
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
        if not all(np.isfinite(feats)):
            raise DataFormatError(f"{path}: row {lineno}: non-finite feature value")
        try:
            label = int(row[label_idx])
        except ValueError:
            raise DataFormatError(
                f"{path}: row {lineno}: unknown label value {row[label_idx]!r}"
            ) from None
        if label < 0:
            raise DataFormatError(f"{path}: row {lineno}: unknown label value {label}")
        features.append(feats)
        labels.append(label)
        ids.append(row[id_idx] if id_idx is not None else str(rownum))
    return FeatureDataset(
        np.array(features), np.array(labels), ids, name if name is not None else path.stem
    )


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def echo_header(config: dict | None, **extra) -> list[str]:
    """'# key = value' comment lines echoing ``config`` and then ``extra``, in order."""
    return [f"# {k} = {v}" for k, v in [*(config or {}).items(), *extra.items()]]


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


def save_csv(dataset: FeatureDataset, path) -> None:
    """Write the interchange CSV; float repr guarantees load/save roundtrips."""
    with atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "label"] + [f"f{i}" for i in range(dataset.feature_dim)])
        for i in range(len(dataset)):
            writer.writerow(
                [dataset.ids[i], int(dataset.labels[i])]
                + [repr(float(v)) for v in dataset.features[i]]
            )


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
    if sigma <= 0:
        raise ValueError("sigma must be positive")
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

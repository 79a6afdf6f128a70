"""Numerically stable scalar/vector primitives shared across the package.

Weight matrices and feature batches are plain float64 numpy arrays in
row-major layout; nothing in this module owns state.
"""

from __future__ import annotations

import numpy as np


def softmax(logits) -> np.ndarray:
    """Normalized exponentials along the last axis, computed with max-subtraction."""
    x = np.asarray(logits, dtype=np.float64)
    if x.size == 0:
        raise ValueError("softmax of empty input")
    if not np.isfinite(x).all():
        raise ValueError("softmax input must be finite")
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits) -> np.ndarray:
    """Log of ``softmax`` along the last axis."""
    x = np.asarray(logits, dtype=np.float64)
    s = x - x.max(axis=-1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=-1, keepdims=True))


def softplus(x) -> np.ndarray:
    """log(1 + e^x) without overflow; tends to x for large x, 0+ for large -x."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("softplus input must be finite")
    return np.logaddexp(0.0, x)


def inv_softplus(y) -> np.ndarray:
    """Inverse of softplus on positive inputs."""
    y = np.asarray(y, dtype=np.float64)
    if not np.all(y > 0):
        raise ValueError("inverse softplus needs positive input")
    # beyond ~30 softplus is the identity to double precision
    return np.where(y > 30.0, y, np.log(np.expm1(np.minimum(y, 30.0))))


def sigmoid(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))

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


def log_softmax(logits, out=None) -> np.ndarray:
    """Log of ``softmax`` along the last axis, written to ``out`` if given (numpy's convention)."""
    x = np.asarray(logits, dtype=np.float64)
    m = np.maximum.reduce(x, axis=-1, keepdims=True)  # x.max's reduction without its wrapper
    s = np.subtract(x, m, out=out)
    s -= np.log(np.add.reduce(np.exp(s), axis=-1, keepdims=True, out=m), out=m)
    return s


def softplus(x) -> np.ndarray:
    """log(1 + e^x) without overflow; tends to x for large x, 0+ for large -x."""
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("softplus input must be finite")
    return np.logaddexp(0.0, x)


def inv_softplus(y) -> np.ndarray:
    """Inverse of softplus on positive inputs."""
    y = np.asarray(y, dtype=np.float64)
    if not np.all(y > 0):
        raise ValueError("inverse softplus needs positive input")
    # beyond ~30 softplus is the identity to double precision
    return np.where(y > 30.0, y, np.log(np.expm1(np.minimum(y, 30.0))))


def sigmoid(x, out=None) -> np.ndarray:
    """1 / (1 + z) for x >= 0 and z / (1 + z) below, with z = e^-|x|. ``out`` as in numpy."""
    x = np.asarray(x, dtype=np.float64)
    d = np.exp(np.copysign(x, -1.0)) + 1.0
    return np.divide(np.exp(np.minimum(x, 0.0)), d, out=out)  # the numerator: 1, or e^x = z

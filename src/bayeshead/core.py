"""Numerically stable scalar/vector primitives shared across the package.

Weight matrices and feature batches are plain float64 numpy arrays in
row-major layout; nothing in this module owns state.  ``reduce_classes``
is the one max or sum over a class axis.
"""

from __future__ import annotations

import numpy as np

_COLUMN_CLASSES = range(2, 8)  # below 8 terms numpy's pairwise sum adds in order, as the columns do
_COLUMN_ROWS = 64  # below this the ufunc calls per column cost more than numpy's row loop


def reduce_classes(ufunc, x: np.ndarray, out=None) -> np.ndarray:
    """``ufunc.reduce(x, axis=-1, keepdims=True, out=out)`` for ``np.maximum`` or ``np.add``.

    numpy reduces a 2-7 wide last axis one row at a time, so from 64 rows on it is one ufunc call
    per class column, in class order, which gives numpy's bits up to the sign of a zero sum.
    Smaller arrays, such as a single row's draws or a training batch, go straight to numpy.
    """
    c = x.shape[-1] if x.ndim else 0
    if x.size >= _COLUMN_ROWS * c and c in _COLUMN_CLASSES:
        acc = ufunc(x[..., 0], x[..., 1], out=None if out is None else out[..., 0])
        for k in range(2, c):
            ufunc(acc, x[..., k], out=acc)
        return acc[..., None]
    return ufunc.reduce(x, axis=-1, keepdims=True, out=out)


def softmax(logits) -> np.ndarray:
    """Normalized exponentials along the last axis, computed with max-subtraction."""
    x = np.asarray(logits, dtype=np.float64)
    if x.size == 0:
        raise ValueError("softmax of empty input")
    if not np.isfinite(x).all():
        raise ValueError("softmax input must be finite")
    e = np.exp(x - reduce_classes(np.maximum, x))
    return e / reduce_classes(np.add, e)


def log_softmax(logits, out=None) -> np.ndarray:
    """Log of ``softmax`` along the last axis, written to ``out`` if given (numpy's convention)."""
    x = np.asarray(logits, dtype=np.float64)
    m = reduce_classes(np.maximum, x)
    s = np.subtract(x, m, out=out)
    s -= np.log(reduce_classes(np.add, np.exp(s), out=m), out=m)
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

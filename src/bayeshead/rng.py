"""Counter-based random streams for reproducible sampling.

Every variate is a pure function of (seed, stream_id, word index), so a
stream can be serialized mid-sequence, restored, and split into
independent child streams for parallel work without cross-talk.  Two
rounds of the SplitMix64 finalizer with key material injected between
rounds give the avalanche quality needed for Monte Carlo use; draws are
turned into normals by Box-Muller.

``child_normals`` blocks are memoized: prediction reads the same
(n, k) block of child-stream normals on every call, since it never
advances its stream.  The memo sits beneath ``RngStream.normal``, so
every variate still goes through that one entry point and a hit still
consumes (advances the counter by) the words it stands for.  It keeps at
most 8 read-only blocks, 8 * n * k * 8 bytes: about 53 KB a block at
n=50, k=132.  One level up, ``inference.posterior_draws`` memoizes the
weight stack it builds from a block, and still reads the block through
``child_normals`` on every call.

Conventions: a stream object is either *drawn from* (advancing its
counter) or *derived from* (pure, counter untouched) -- never both for
the same purpose.  Parallel tasks must each own a derived child stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_STREAM_SALT = np.uint64(0xD1342543DE82EF95)
_MIX_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MUL2 = np.uint64(0x94D049BB133111EB)
_SHIFT_30, _SHIFT_27, _SHIFT_31, _SHIFT_11 = (np.uint64(s) for s in (30, 27, 31, 11))
_TO_UNIT = 2.0**-53
_TWO_PI = 2.0 * np.pi


def check_seed(seed: int) -> None:
    """ValueError unless ``seed`` lies in [0, 2**64): a stream keeps only a seed's low 64 bits, so two
    seeds outside it could give the same draws.  Checked where a seed enters, not per stream."""
    if not 0 <= seed <= _MASK:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


def _mix(words: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer; bijective avalanche on uint64 words."""
    words = (words ^ (words >> _SHIFT_30)) * _MIX_MUL1
    words = (words ^ (words >> _SHIFT_27)) * _MIX_MUL2
    return words ^ (words >> _SHIFT_31)


def _u64(value: int) -> np.ndarray:
    return np.array([value & _MASK], dtype=np.uint64)


def _keys(seed: int, stream_ids: np.ndarray) -> np.ndarray:
    """The seed key, then one key per stream id."""
    return _mix(np.concatenate([_u64(seed), stream_ids ^ _GOLDEN]))


def _words(keys: np.ndarray, start: int, count: int) -> np.ndarray:
    """Words start .. start+count-1 of the streams keyed by ``keys[1:]`` under seed key ``keys[0]``, one row each."""
    idx = np.arange(start, start + count, dtype=np.uint64)
    h = _mix(idx * _GOLDEN + keys[:1])
    return _mix(h ^ keys[1:, None])


def _child_ids(stream_ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Ids of the child streams keyed by ``keys``; uint64 arrays, broadcast."""
    return _mix((stream_ids ^ _GOLDEN) + _mix(keys * _STREAM_SALT))


def _box_muller(words: np.ndarray) -> np.ndarray:
    """Standard normals from word pairs along the last axis."""
    # u1 in (0, 1] so log never sees zero; u2 in [0, 1).
    u1 = ((words[..., 0::2] >> _SHIFT_11).astype(np.float64) + 1.0) * _TO_UNIT
    u2 = (words[..., 1::2] >> _SHIFT_11).astype(np.float64) * _TO_UNIT
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2)


@dataclass
class RngStream:
    """One reproducible stream; (seed, stream_id) fixes the full sequence.

    The counter records how many raw 64-bit words have been consumed, so
    ``RngStream(**old.state())`` resumes exactly where ``old`` stopped.
    """

    seed: int
    stream_id: int = 0
    counter: int = 0

    def normal(self, n: int) -> np.ndarray:
        """Draw n standard normals, consuming 2n words."""
        if n < 1:
            raise ValueError("normal draw count must be >= 1")
        return self._normals(n)

    def child_normals(self, n: int, k: int) -> np.ndarray:
        """(n, k) normals whose row i is ``self.derive(i).normal(k)``; does not advance self.

        The block is read-only: repeated calls share one memoized array.
        """
        if n < 1 or k < 1:
            raise ValueError("child normal counts must be >= 1")
        return _Children(self.seed, self.stream_id, rows=n).normal(n * k)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic Fisher-Yates shuffle of range(n)."""
        if n < 0:
            raise ValueError("permutation length must be >= 0")
        perm = list(range(n))
        if n > 1:
            # word k picks the partner of position n-1-k among positions 0 .. n-1-k
            swaps = (self._take(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
            for i, j in zip(range(n - 1, 0, -1), swaps):
                perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)

    def derive(self, *keys: int) -> "RngStream":
        """Independent child stream keyed by ``keys``; does not advance self."""
        sid = _u64(self.stream_id)
        for key in keys:
            sid = _child_ids(sid, _u64(key))
        return RngStream(self.seed, int(sid[0]), 0)

    def state(self) -> dict:
        """Serializable snapshot; feed back as RngStream(**state) to resume."""
        return {"seed": self.seed, "stream_id": self.stream_id, "counter": self.counter}

    def _normals(self, n: int) -> np.ndarray:
        """The next n normals of this stream."""
        return _box_muller(self._take(2 * n))

    def _take(self, count: int) -> np.ndarray:
        """The next ``count`` words of this stream."""
        w = _words(_keys(self.seed, _u64(self.stream_id)), self.counter, count)[0]
        self.counter += count
        return w


@lru_cache(maxsize=8)
def _child_block(seed: int, stream_id: int, rows: int, counter: int, k: int) -> np.ndarray:
    """(rows, k) normals, row i from word ``counter`` of child stream i; read-only, as callers share it."""
    ids = _child_ids(_u64(stream_id), np.arange(rows, dtype=np.uint64))
    block = _box_muller(_words(_keys(seed, ids), counter, 2 * k))
    block.setflags(write=False)
    return block


@dataclass
class _Children(RngStream):
    """Child streams 0 .. rows-1 read as one stream, one row of words each, so ``normal`` can draw them;
    their normals come from the ``_child_block`` memo."""

    rows: int = 1

    def _normals(self, n: int) -> np.ndarray:
        k = n // self.rows
        block = _child_block(self.seed, self.stream_id, self.rows, self.counter, k)
        self.counter += 2 * k
        return block

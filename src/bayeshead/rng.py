"""Counter-based random streams for reproducible sampling.

Every variate is a pure function of (seed, stream_id, word index), so a
stream can be serialized mid-sequence, restored, and split into
independent child streams for parallel work without cross-talk.  Two
rounds of the SplitMix64 finalizer with key material injected between
rounds give the avalanche quality needed for Monte Carlo use; draws are
turned into normals by Box-Muller.

Conventions: a stream object is either *drawn from* (advancing its
counter) or *derived from* (pure, counter untouched) -- never both for
the same purpose.  Parallel tasks must each own a derived child stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xD1342543DE82EF95


def _mix(words: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer; bijective avalanche on uint64 words."""
    words = (words ^ (words >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    words = (words ^ (words >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return words ^ (words >> np.uint64(31))


def _u64(value: int) -> np.ndarray:
    return np.array([value & _MASK], dtype=np.uint64)


def _words(seed: int, stream_ids: np.ndarray, start: int, count: int) -> np.ndarray:
    """Words start .. start+count-1 of streams (seed, stream_ids[j]), one row per id."""
    idx = np.arange(start, start + count, dtype=np.uint64)
    keys = _mix(np.concatenate([_u64(seed), stream_ids ^ np.uint64(_GOLDEN)]))  # seed key, then stream keys
    h = _mix(idx * np.uint64(_GOLDEN) + keys[:1])
    return _mix(h ^ keys[1:, None])


def _child_ids(stream_ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Ids of the child streams keyed by ``keys``; uint64 arrays, broadcast."""
    return _mix((stream_ids ^ np.uint64(_GOLDEN)) + _mix(keys * np.uint64(_STREAM_SALT)))


def _box_muller(words: np.ndarray) -> np.ndarray:
    """Standard normals from word pairs along the last axis."""
    # u1 in (0, 1] so log never sees zero; u2 in [0, 1).
    u1 = ((words[..., 0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (words[..., 1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


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
        return _box_muller(self._take(2 * n))

    def child_normals(self, n: int, k: int) -> np.ndarray:
        """(n, k) normals whose row i is ``self.derive(i).normal(k)``; does not advance self."""
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

    def _take(self, count: int) -> np.ndarray:
        """The next ``count`` words of this stream."""
        w = _words(self.seed, _u64(self.stream_id), self.counter, count)[0]
        self.counter += count
        return w


@dataclass
class _Children(RngStream):
    """Child streams 0 .. rows-1 read as one stream, one row of words each, so ``normal`` can draw them."""

    rows: int = 1

    def _take(self, count: int) -> np.ndarray:
        ids = _child_ids(_u64(self.stream_id), np.arange(self.rows, dtype=np.uint64))
        w = _words(self.seed, ids, self.counter, count // self.rows)
        self.counter += count // self.rows
        return w

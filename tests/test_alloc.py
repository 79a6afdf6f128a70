"""Importing bayeshead fixes glibc's malloc thresholds (``bayeshead._alloc``)."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bayeshead  # the import pins the thresholds
from bayeshead import _alloc
from bayeshead.analytics import _BLOCK_ROWS
from bayeshead.inference import MC_SAMPLES


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]


def _mallinfo2():
    try:
        fn = ctypes.CDLL(None).mallinfo2
    except AttributeError:
        return None
    fn.restype = _MallInfo2
    return fn


_SETTINGS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")
pinned = pytest.mark.skipif(_mallinfo2() is None or any(name in os.environ for name in _SETTINGS),
                            reason="needs glibc >= 2.33 and no user-set malloc thresholds")


@pinned
def test_freed_large_array_does_not_move_the_mmap_threshold():
    info = _mallinfo2()
    big = np.ones(4 * _alloc.MMAP_THRESHOLD // 8)  # freeing it would raise a dynamic threshold to 4 MiB
    del big
    before = info().hblks
    mid = np.ones(2 * _alloc.MMAP_THRESHOLD // 8)  # its own mapping only while the threshold stays put
    assert info().hblks == before + 1
    del mid
    assert info().hblks == before


_REUSE = """
import resource, numpy as np, bayeshead
rows = (bayeshead._alloc.MMAP_THRESHOLD * 3 // 5) // 8  # 600 KiB: above glibc's default trim threshold
np.ones(rows)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    np.ones(rows)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
"""


@pinned
def test_transient_arrays_under_the_threshold_reuse_the_heap():
    # a fresh interpreter, so the blocks sit at the top of the heap, where a trim would return them
    out = subprocess.run([sys.executable, "-c", _REUSE], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(Path(bayeshead.__file__).parent.parent)})
    assert int(out.stdout) < 150  # pages of one 600 KiB block; each fresh block would fault them all in


def test_pin_sets_the_thresholds_on_glibc_only(monkeypatch):
    for name in _SETTINGS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(os, "confstr", lambda name: "musl 1.2")
    assert _alloc.pin_malloc_thresholds() is False
    monkeypatch.setattr(os, "confstr", lambda name: None)
    assert _alloc.pin_malloc_thresholds() is False
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    if _mallinfo2() is not None:  # a real glibc underneath: mallopt accepts the values
        assert _alloc.pin_malloc_thresholds() is True


@pytest.mark.parametrize("name, value", [("MALLOC_MMAP_THRESHOLD_", "65536"),
                                         ("MALLOC_TRIM_THRESHOLD_", "65536"),
                                         ("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=65536"),
                                         ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=65536")])
def test_pin_leaves_user_thresholds_alone(monkeypatch, name, value):
    monkeypatch.setattr(os, "confstr", lambda _: "glibc 2.36")
    monkeypatch.setenv(name, value)
    assert _alloc.pin_malloc_thresholds() is False


def test_a_prediction_block_stays_under_the_mmap_threshold():
    # the (rows, draws, classes) draws of one evaluate block at the default draw count and 8 classes
    # come from the heap, so a larger _BLOCK_ROWS must not carry them into a mapping of their own
    assert _BLOCK_ROWS * MC_SAMPLES * 8 * np.dtype(np.float64).itemsize < _alloc.MMAP_THRESHOLD  # 819,200 B

"""Steady resident memory under glibc's malloc.

glibc starts with a 128 KiB mmap threshold but raises it to the size of
every mmapped block that is freed (up to 32 MiB), and its heap trim
threshold to twice that.  After the first large free, arrays of that
size come from the heap, and how much of the heap stays resident then
depends on where earlier long-lived arrays landed: the same triage work
read 54, 57 or 59 MiB of peak RSS depending on where it was checked out.
Setting the thresholds explicitly turns that adjustment off.

bayeshead's transient arrays (hidden-layer outputs of a validation or
prediction block, a training epoch's noise words, Monte Carlo draw
stacks) stay under ``MMAP_THRESHOLD``, so they reuse heap memory without
new page faults.  For the draws of an evaluate block, 256 rows of n draws
of C classes in float64, that holds while n * C < 512: 50 draws of up to
10 classes.  The heap keeps up to ``TRIM_THRESHOLD`` of free
memory at its top before returning it.  Arrays of ``MMAP_THRESHOLD`` or
more, such as a caller's feature sets, are each their own mapping and go
back to the system when freed, so they cannot pin the heap.  A 128 KiB
threshold would also remove the modes, but it made a 10-epoch training
call on 4000 64-dim rows take about 10000 page faults instead of a few.

The package sets both once, on import.  Thresholds the user chose at
start-up (``MALLOC_MMAP_THRESHOLD_``, ``MALLOC_TRIM_THRESHOLD_`` or
``GLIBC_TUNABLES``) are left alone, and other C libraries are not
touched.
"""

from __future__ import annotations

import ctypes
import os

MMAP_THRESHOLD = 1 << 20  # bytes
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD  # the ratio glibc's own adjustment keeps
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameter numbers, from <malloc.h>


def pin_malloc_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds; True if this call set them."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        libc = ""
    if not libc.startswith("glibc"):
        return False
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    if any(name in os.environ for name in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")) or any(
        name in tunables for name in ("malloc.mmap_threshold", "malloc.trim_threshold")
    ):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    return mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1 and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1

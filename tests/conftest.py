import ctypes
import platform
from pathlib import Path

import numpy as np
import pytest

from bayeshead import TrainConfig, synth_blobs, train_baseline, train_bayes

BLOB_MEANS = [(-2.0, 0.0), (2.0, 0.0)]

# the build every digest pin was taken on.  numpy's AVX-512 loops give float64 log and exp other last
# bits than its AVX2 ones, and OpenBLAS picks its kernels by CPU, so another build or CPU may move bits
PINNED_BUILD = ("numpy 2.4.6 (dispatch X86_V3, X86_V4, AVX512_ICL), scipy-openblas 0.3.31 (core SkylakeX), "
                "Python 3.11, x86-64")


def _dispatch_targets() -> str:
    """The optimized loop families numpy was built with that this CPU runs."""
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath  # numpy 1 calls it np.core
    return ", ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t))


def _openblas_core() -> str:
    """The kernel family numpy's bundled OpenBLAS chose for this CPU, or 'unknown' in another build."""
    try:
        lib = next(Path(np.__file__).parent.with_name("numpy.libs").glob("libscipy_openblas64_*"))
        corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
    except (StopIteration, OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def build_note() -> str:
    """A failed pin's message: the build the pins were taken on beside the running one."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    running = (f"numpy {np.__version__} (dispatch {_dispatch_targets()}), "
               f"{blas['name']} {blas['version']} (core {_openblas_core()}), "
               f"Python {platform.python_version()}, {platform.machine()}")
    return f"pinned on {PINNED_BUILD}; running {running}"


@pytest.fixture(scope="session")
def tiny_config():
    return TrainConfig(epochs=12, hidden_dim=8, batch_size=16, seed=3)


@pytest.fixture(scope="session")
def tiny_task():
    train = synth_blobs(30, BLOB_MEANS, 1.0, seed=41, name="tiny-train")
    val = synth_blobs(15, BLOB_MEANS, 1.0, seed=42, name="tiny-val")
    return train, val


@pytest.fixture(scope="session")
def tiny_bayes(tiny_task, tiny_config):
    model, _ = train_bayes(*tiny_task, tiny_config)
    return model


@pytest.fixture(scope="session")
def tiny_baseline(tiny_task, tiny_config):
    model, _ = train_baseline(*tiny_task, tiny_config)
    return model

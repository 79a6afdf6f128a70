import platform

import numpy as np
import pytest

from bayeshead import TrainConfig, synth_blobs, train_baseline, train_bayes

BLOB_MEANS = [(-2.0, 0.0), (2.0, 0.0)]

# the build every digest pin was taken on: training matmuls go through BLAS, so another build may move bits
PINNED_BUILD = "numpy 2.4.6, scipy-openblas 0.3.31, Python 3.11, x86-64"


def build_note() -> str:
    """A failed pin's message: the build the pins were taken on beside the running one."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    running = (f"numpy {np.__version__}, {blas['name']} {blas['version']}, "
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

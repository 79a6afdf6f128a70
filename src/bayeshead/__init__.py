"""Variational Bayesian classification head with uncertainty-aware referral.

A small dense head (hidden relu layer + variational output layer with a
spike-and-slab prior) trained by minimizing summed NLL + KL, evaluated
with Monte Carlo predictive draws, and wired to entropy / credible
interval / referral analytics.  A deterministic point-weight head with
the identical training loop serves as the generalization baseline.

The package exports the pipeline API; internals are imported from their
modules (``bayeshead.network``, ``bayeshead.training``, ...).

Importing the package fixes glibc's mmap and trim thresholds, so resident
memory does not depend on where earlier large arrays landed in the heap
(see ``_alloc``).
"""

from . import _alloc
from .analytics import (
    EvalReport,
    PredictionRecord,
    compare_report,
    entropy_histogram,
    evaluate,
    kde,
)
from .core import inv_softplus
from .data import FeatureDataset, ShiftConfig, load_csv, synth_blobs, synth_shift
from .distributions import SpikeSlabPrior, VariationalParams, mc_kl, sample_from_epsilon
from .errors import ArchiveError, DataFormatError, NumericError, VariantError
from .inference import (
    PredictiveResult,
    ReferralDecision,
    ReferralThresholds,
    predict_mc,
    predictive_from_samples,
    referral_decision,
)
from .model_io import ModelArchive, load_model, save_model
from .network import HeadModel, backward
from .rng import RngStream
from .training import (
    TrainConfig,
    TrainHistory,
    init_bayes_model,
    train_baseline,
    train_bayes,
    validate_metrics,
)

__version__ = "0.1.0"

_alloc.pin_malloc_thresholds()

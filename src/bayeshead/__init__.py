"""Variational Bayesian classification head with uncertainty-aware referral.

A small dense head (hidden relu layer + variational output layer with a
spike-and-slab prior) trained by minimizing summed NLL + KL, evaluated
with Monte Carlo predictive draws, and wired to entropy / credible
interval / referral analytics.  A deterministic point-weight head with
the identical training loop serves as the generalization baseline.

Importing the package fixes glibc's mmap and trim thresholds, so resident
memory does not depend on where earlier large arrays landed in the heap
(see ``_alloc``).
"""

from ._alloc import pin_malloc_thresholds
from .analytics import (
    ComparisonRow,
    EntropyHistogram,
    EvalReport,
    KdeCurve,
    PredictionRecord,
    compare_report,
    entropy_histogram,
    evaluate,
    kde,
    silverman_bandwidth,
)
from .core import inv_softplus, log_softmax, sigmoid, softmax, softplus
from .data import (
    CsvSchema,
    FeatureDataset,
    ShiftConfig,
    balance_downsample,
    load_csv,
    save_csv,
    split,
    split_counts,
    synth_blobs,
    synth_shift,
)
from .distributions import (
    SpikeSlabPrior,
    VariationalParams,
    WeightSample,
    gaussian_log_pdf,
    kl_sample_estimate,
    mc_kl,
    mean_sample,
    sample_from_epsilon,
    sample_weights,
    spike_slab_log_pdf,
)
from .errors import ArchiveError, DataFormatError, NumericError, VariantError
from .inference import (
    PredictiveResult,
    ReferralDecision,
    ReferralThresholds,
    credible_interval,
    entropy_bits,
    predict_deterministic,
    predict_mc,
    predictive_from_samples,
    referral_decision,
)
from .model_io import FORMAT_VERSION, ModelArchive, load_model, save_model
from .network import (
    DenseLayer,
    HeadModel,
    VariationalDenseLayer,
    backward,
    batch_forward,
    batch_nll,
    bayes_forward,
    dense_forward,
    mean_forward,
)
from .rng import RngStream
from .training import (
    EpochRecord,
    RmspropState,
    TrainConfig,
    TrainHistory,
    elbo_loss,
    init_baseline_model,
    init_bayes_model,
    kl_weight_for,
    rmsprop_step,
    train_baseline,
    train_bayes,
    validate_metrics,
    write_history_csv,
)

__version__ = "0.1.0"

pin_malloc_thresholds()

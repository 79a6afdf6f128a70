"""Model persistence: a versioned JSON archive with explicit arrays.

Python float repr round-trips exactly through JSON, so load(save(m))
reproduces every parameter bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import atomic_write
from .distributions import SpikeSlabPrior, VariationalParams
from .errors import ArchiveError
from .network import DenseLayer, HeadModel, VariationalDenseLayer

FORMAT_VERSION = 1


@dataclass
class ModelArchive:
    model: HeadModel
    train_config: dict | None = None
    seed_provenance: dict | None = None
    format_version: int = FORMAT_VERSION


def save_model(archive: ModelArchive, path) -> None:
    model = archive.model
    doc: dict = {
        "format_version": archive.format_version,
        "variant": model.variant,
        "feature_dim": model.feature_dim,
        "hidden_dim": model.hidden_dim,
        "n_classes": model.n_classes,
        "hidden": {
            "activation": model.hidden.activation,
            "weights": model.hidden.weights.tolist(),
            "bias": model.hidden.bias.tolist(),
        },
    }
    if model.is_bayesian:
        doc["output"] = {
            "mu": model.output.params.mu.tolist(),
            "rho": model.output.params.rho.tolist(),
            "prior": {
                "mix_weight": model.output.prior.mix_weight,
                "slab_sigma": model.output.prior.slab_sigma,
                "spike_sigma": model.output.prior.spike_sigma,
            },
        }
    else:
        doc["output"] = {
            "weights": model.output.weights.tolist(),
            "bias": model.output.bias.tolist(),
        }
    doc["train_config"] = archive.train_config
    doc["seed_provenance"] = archive.seed_provenance
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def load_model(path) -> ModelArchive:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"model archive not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ArchiveError(f"corrupt model archive {path}: {e}") from None
    if not isinstance(doc, dict):
        raise ArchiveError(f"corrupt model archive {path}: not a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ArchiveError(
            f"model archive {path} has format_version {version}; this build reads {FORMAT_VERSION}"
        )
    try:
        hidden = DenseLayer(
            np.array(doc["hidden"]["weights"], dtype=np.float64),
            np.array(doc["hidden"]["bias"], dtype=np.float64),
            doc["hidden"]["activation"],
        )
        n_classes = int(doc["n_classes"])
        out = doc["output"]
        if doc["variant"] == "bayesian":
            prior = SpikeSlabPrior(
                mix_weight=float(out["prior"]["mix_weight"]),
                slab_sigma=float(out["prior"]["slab_sigma"]),
                spike_sigma=float(out["prior"]["spike_sigma"]),
            )
            output = VariationalDenseLayer(
                VariationalParams(
                    np.array(out["mu"], dtype=np.float64),
                    np.array(out["rho"], dtype=np.float64),
                ),
                prior,
                int(doc["hidden_dim"]),
                n_classes,
            )
        elif doc["variant"] == "baseline":
            output = DenseLayer(
                np.array(out["weights"], dtype=np.float64),
                np.array(out["bias"], dtype=np.float64),
                "identity",
            )
        else:
            raise ArchiveError(f"model archive {path} has unknown variant {doc['variant']!r}")
        model = HeadModel(hidden, output, n_classes)
        declared = (int(doc["feature_dim"]), int(doc["hidden_dim"]))
        if declared != (model.feature_dim, model.hidden_dim):
            raise ArchiveError(
                f"model archive {path} declares feature_dim {declared[0]} and hidden_dim {declared[1]}, "
                f"but its hidden weights are {model.feature_dim} x {model.hidden_dim}"
            )
    except ArchiveError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ArchiveError(f"corrupt model archive {path}: {e}") from None
    return ModelArchive(
        model=model,
        train_config=doc.get("train_config"),
        seed_provenance=doc.get("seed_provenance"),
        format_version=version,
    )

"""Model persistence: a versioned JSON archive with explicit arrays.

Python float repr round-trips exactly through JSON, so load(save(m))
reproduces every parameter bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path

from .data import write_json
from .distributions import SpikeSlabPrior, VariationalParams
from .errors import ArchiveError
from .network import DenseLayer, HeadModel, VariationalDenseLayer

FORMAT_VERSION = 1
# the JSON types load_model takes by type(), as isinstance would take a bool for an int
_INTEGER, _NUMBER, _ARRAY = (int,), (int, float), (int, float, list)
_MUST = {_INTEGER: "be an integer", _NUMBER: "be a number", _ARRAY: "hold only numbers"}


@dataclass
class ModelArchive:
    model: HeadModel
    train_config: dict | None = None
    seed_provenance: dict | None = None


def save_model(archive: ModelArchive, path) -> None:
    model = archive.model
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "variant": model.variant,
        "feature_dim": model.feature_dim,
        "hidden_dim": model.hidden_dim,
        "n_classes": model.n_classes,
        "hidden": {
            "activation": "relu",  # the head's one hidden activation; load_model rejects any other
            "weights": model.hidden.weights.tolist(),
            "bias": model.hidden.bias.tolist(),
        },
    }
    if model.is_bayesian:
        doc["output"] = {
            "mu": model.output.params.mu.tolist(),
            "rho": model.output.params.rho.tolist(),
            "prior": asdict(model.output.prior),
        }
    else:
        doc["output"] = {
            "weights": model.output.weights.tolist(),
            "bias": model.output.bias.tolist(),
        }
    doc["train_config"] = archive.train_config
    doc["seed_provenance"] = archive.seed_provenance
    write_json(path, doc)


def _field(path, doc: dict, name: str, kinds: tuple):
    """The value at the dotted ``name`` in ``doc`` when it, and every entry of its nested lists,
    has a type in ``kinds``; ArchiveError naming the field and the first entry of another type otherwise."""
    value = doc
    for key in name.split("."):
        value = value[key]
    level = [value]
    while level:
        for v in level:
            if type(v) not in kinds:
                raise ArchiveError(f"model archive {path} field {name!r} must {_MUST[kinds]}, got {v!r}")
        level = [x for v in level if type(v) is list for x in v]
    return value


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
        # the layers and VariationalParams convert the JSON lists to float64 arrays themselves; as
        # numpy would take bools and numeric strings for numbers, _field checks the JSON types first
        field = partial(_field, path, doc)
        layer = doc["hidden"]
        if layer["activation"] != "relu":
            raise ArchiveError(f"model archive {path} has hidden activation {layer['activation']!r}, not 'relu'")
        hidden = DenseLayer(field("hidden.weights", _ARRAY), field("hidden.bias", _ARRAY))
        declared = tuple(field(name, _INTEGER) for name in ("feature_dim", "hidden_dim", "n_classes"))
        if doc["variant"] == "bayesian":
            prior = SpikeSlabPrior(**{f.name: float(field(f"output.prior.{f.name}", _NUMBER))
                                      for f in fields(SpikeSlabPrior)})
            params = VariationalParams(field("output.mu", _ARRAY), field("output.rho", _ARRAY))
            output = VariationalDenseLayer(params, prior, *declared[1:])
        elif doc["variant"] == "baseline":
            output = DenseLayer(field("output.weights", _ARRAY), field("output.bias", _ARRAY))
        else:
            raise ArchiveError(f"model archive {path} has unknown variant {doc['variant']!r}")
        model = HeadModel(hidden, output)
        if declared != (model.feature_dim, model.hidden_dim, model.n_classes):
            raise ArchiveError(
                f"model archive {path} declares feature_dim, hidden_dim and n_classes {declared}, "
                f"but its arrays give {(model.feature_dim, model.hidden_dim, model.n_classes)}"
            )
    except ArchiveError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as e:  # OverflowError: a number beyond float64
        raise ArchiveError(f"corrupt model archive {path}: {e}") from None
    return ModelArchive(
        model=model,
        train_config=doc.get("train_config"),
        seed_provenance=doc.get("seed_provenance"),
    )

"""Model persistence: a versioned JSON archive with explicit arrays.

Python float repr round-trips exactly through JSON, so load(save(m))
reproduces every parameter bit for bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path

from .data import read_json, write_json
from .distributions import SpikeSlabPrior, VariationalParams
from .errors import ArchiveError
from .network import DenseLayer, HeadModel, VariationalDenseLayer

FORMAT_VERSION = 1
# the JSON types load_model takes by type(), as isinstance would take a bool for an int
_INTEGER, _NUMBER, _ARRAY = (int,), (int, float), (int, float, list)
_MUST = {_INTEGER: "be an integer", _NUMBER: "be a number", _ARRAY: "hold only numbers"}
_DIMS = ("feature_dim", "hidden_dim", "n_classes")  # HeadModel's sizes, which the archive declares
_LEAST = (1, 1, 2)  # the smallest of each that a trained head has, as TrainConfig and training._train keep them


@dataclass
class ModelArchive:
    model: HeadModel
    train_config: dict | None = None
    seed_provenance: dict | None = None


def save_model(archive: ModelArchive, path) -> None:
    model, output = archive.model, archive.model.output
    write_json(path, {
        "format_version": FORMAT_VERSION,
        "variant": model.variant,
        **{name: getattr(model, name) for name in _DIMS},
        "hidden": {"activation": "relu", **_arrays(model.hidden)},  # load_model takes no other activation
        "output": {**_arrays(output.params), "prior": asdict(output.prior)} if model.is_bayesian else _arrays(output),
        "train_config": archive.train_config,
        "seed_provenance": archive.seed_provenance,
    })


def _arrays(obj) -> dict:
    """The array fields of the dataclass ``obj`` (a ``DenseLayer`` or ``VariationalParams``) as lists."""
    return {f.name: getattr(obj, f.name).tolist() for f in fields(obj)}


def _from_arrays(field, cls, at: str):
    """A ``cls`` built from the arrays ``_arrays`` wrote at the dotted ``at``, each checked by ``field``."""
    return cls(*(field(f"{at}.{f.name}", _ARRAY) for f in fields(cls)))


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
        doc = read_json(path)
    except ValueError as e:  # its message begins with the path
        raise ArchiveError(f"corrupt model archive {e}") from None
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ArchiveError(
            f"model archive {path} has format_version {version}; this build reads {FORMAT_VERSION}"
        )
    _field(path, doc, "format_version", _INTEGER)  # true and 1.0 equal 1 too
    try:
        # the layers and VariationalParams convert the JSON lists to float64 arrays themselves; as
        # numpy would take bools and numeric strings for numbers, _field checks the JSON types first
        field = partial(_field, path, doc)
        layer = doc["hidden"]
        if layer["activation"] != "relu":
            raise ArchiveError(f"model archive {path} has hidden activation {layer['activation']!r}, not 'relu'")
        declared = tuple(field(name, _INTEGER) for name in _DIMS)
        for name, size, least in zip(_DIMS, declared, _LEAST):
            if size < least:
                raise ArchiveError(f"model archive {path} field {name!r} must be at least {least}, got {size}")
        hidden = _from_arrays(field, DenseLayer, "hidden")
        if doc["variant"] == "bayesian":
            prior = SpikeSlabPrior(**{f.name: float(field(f"output.prior.{f.name}", _NUMBER))
                                      for f in fields(SpikeSlabPrior)})
            params = _from_arrays(field, VariationalParams, "output")
            output = VariationalDenseLayer(params, prior, *declared[1:])
        elif doc["variant"] == "baseline":
            output = _from_arrays(field, DenseLayer, "output")
        else:
            raise ArchiveError(f"model archive {path} has unknown variant {doc['variant']!r}")
        model = HeadModel(hidden, output)
        if declared != (given := tuple(getattr(model, name) for name in _DIMS)):
            raise ArchiveError(f"model archive {path} declares feature_dim, hidden_dim and n_classes {declared}, "
                               f"but its arrays give {given}")
    except ArchiveError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as e:  # OverflowError: a number beyond float64
        raise ArchiveError(f"corrupt model archive {path}: {e}") from None
    return ModelArchive(
        model=model,
        train_config=doc.get("train_config"),
        seed_provenance=doc.get("seed_provenance"),
    )

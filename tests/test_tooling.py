"""Guards for the benchmark's tracer, which wraps library functions by name, for the
package names that the benchmark's workloads use, and against training settings, imports
and private names that no code uses, and a smoke run of the step-cost tool."""

import ast
import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bayeshead import (
    RngStream,
    TrainConfig,
    core,
    distributions,
    inference,
    network,
    predict_mc,
    rng,
    train_baseline,
    train_bayes,
    training,
)

import bayeshead

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
STEPCOST = ROOT / "tools" / "stepcost.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    # a rename would otherwise surface only when `perfbench/run.py --trace 1` starts
    targets = _load("perfbench_tracer", TRACER).TARGETS
    assert targets
    for module, qualname, _, _ in targets:
        owner = module
        for part in qualname.split("."):
            assert hasattr(owner, part), f"{module.__name__}.{qualname} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{module.__name__}.{qualname}"


def test_the_package_exports_every_name_the_workloads_use():
    # the package root exports the pipeline API only; a trimmed name would otherwise surface
    # only when the benchmark runs
    workloads = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    used = {node.attr for node in ast.walk(workloads)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "bh"}
    assert used
    assert sorted(name for name in used if not hasattr(bayeshead, name)) == []


def test_every_train_config_field_is_read():
    # a field that no code reads as config.<field> changes nothing but the echoed config
    tree = ast.parse((ROOT / "src" / "bayeshead" / "training.py").read_text(encoding="utf-8"))
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "TrainConfig")
    declared = {node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)}
    inside = {id(node) for node in ast.walk(cls)}
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and id(node) not in inside
            and isinstance(node.value, ast.Name) and node.value.id == "config"}
    assert declared and sorted(declared - read) == []


def _count_calls(monkeypatch, fn) -> list:
    """Wrap ``fn`` at every bayeshead module attribute that refers to it, as the tracer does."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "bayeshead" or name.startswith("bayeshead."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


_PER_STEP = (network.backward, training.rmsprop_step)  # the calls every head makes once per step


_KL_STEP = (distributions._mixture_log_terms,)  # one pass over the prior


@pytest.mark.parametrize("head, per_step", [
    ("shared_sample", (*_PER_STEP, *_KL_STEP, distributions.sample_weights)),
    ("per_example", (*_PER_STEP, *_KL_STEP)),
    ("baseline", _PER_STEP),
])
def test_shared_sample_epoch_makes_one_call_of_each_per_step(monkeypatch, tiny_task, head, per_step):
    calls = {fn.__name__: _count_calls(monkeypatch, fn) for fn in (*per_step, distributions.kl_sample_estimate)}
    train, val = tiny_task
    config = TrainConfig(epochs=1, hidden_dim=4, batch_size=16, seed=3, per_example_sample=head == "per_example")
    # the tracer's core.s sums softplus and sigmoid spans; a step that inlined either would drop out of it
    scales = {fn.__name__: _count_calls(monkeypatch, fn) for fn in (core.softplus, core.sigmoid)}
    (train_baseline if head == "baseline" else train_bayes)(train, val, config)
    steps = math.ceil(len(train) / config.batch_size)
    # the steps' KL values are formed once per block of at most KL_BLOCK steps
    blocks = 0 if head == "baseline" else math.ceil(steps / training.KL_BLOCK) * config.epochs
    assert {name: len(c) for name, c in calls.items()} == {**dict.fromkeys(calls, steps),
                                                           "kl_sample_estimate": blocks}
    # softplus: the step's draw, plus validation's mean_sample once per epoch; sigmoid: backward's sigma'
    expected = {"softplus": 0, "sigmoid": 0} if head == "baseline" else {
        "softplus": steps + config.epochs, "sigmoid": steps}
    assert {name: len(c) for name, c in scales.items()} == expected


def test_single_row_prediction_makes_one_summary_and_one_softmax_call(monkeypatch, tiny_bayes):
    # the tracer's inference.summary_s and core.softmax_calls wrap these names; a path around them reads 0
    calls = {fn.__name__: _count_calls(monkeypatch, fn) for fn in (inference.predictive_from_samples, core.softmax)}
    predict_mc(tiny_bayes, np.array([0.1, -0.4]), 20, RngStream(6).derive(4))
    assert {name: len(c) for name, c in calls.items()} == {"predictive_from_samples": 1, "softmax": 1}


def test_memoized_prediction_still_draws_through_normal(monkeypatch, tiny_bayes):
    # the tracer counts words where it wraps RngStream.normal; a memo hit must still pass through it
    draws = []
    normal = RngStream.normal

    def counted(self, n):
        draws.append(n)
        return normal(self, n)

    monkeypatch.setattr(RngStream, "normal", counted)
    rng._child_block.cache_clear()
    n, k = 20, len(tiny_bayes.output.params)
    for _ in range(3):
        predict_mc(tiny_bayes, np.array([0.1, -0.4]), n, RngStream(6).derive(4))
    assert rng._child_block.cache_info().hits == 2
    assert draws == [n * k] * 3


@pytest.mark.parametrize("module", sorted(p.name for p in (ROOT / "src" / "bayeshead").glob("*.py")
                                          if p.name != "__init__.py"))  # the root re-exports what it imports
def test_every_imported_name_is_used(module):
    # a deletion leaves behind the imports only the deleted code used
    tree = ast.parse((ROOT / "src" / "bayeshead" / module).read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_every_private_name_is_used():
    # a deletion leaves behind the module-level helpers only the deleted code called
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in (ROOT / "src" / "bayeshead").glob("*.py")]
    defined = []  # (name, the ids of the nodes of its definition)
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.name, {id(inner) for inner in ast.walk(node)}))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):  # a constant, or several unpacked from one tuple
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(name.id, {id(name)}) for target in targets for name in ast.walk(target)
                        if isinstance(name, ast.Name)]
    defined = [(name, own) for name, own in defined if name.startswith("_") and not name.startswith("__")]
    references = {}  # name -> the ids of the nodes that name it, as a bare name or an attribute
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, (ast.Name, ast.Attribute)):
            references.setdefault(node.id if isinstance(node, ast.Name) else node.attr, set()).add(id(node))
    assert len(defined) > 50
    assert sorted(name for name, own in defined if not references.get(name, set()) - own) == []


def _modules_importing(name: str) -> list[str]:
    def imports(path):
        return any(isinstance(node, ast.ImportFrom) and node.module == name
                   or isinstance(node, ast.Import) and any(alias.name == name for alias in node.names)
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))

    return sorted(p.name for p in (ROOT / "src" / "bayeshead").glob("*.py") if imports(p))


def test_only_the_data_module_imports_csv():
    # one module holds the CSV dialect: write_csv writes every CSV artifact and load_csv reads datasets
    assert _modules_importing("csv") == ["data.py"]


def test_only_the_data_module_imports_json():
    # one module holds the JSON dialect: write_json writes every JSON artifact and read_json reads them
    assert _modules_importing("json") == ["data.py"]


def test_stepcost_runs_every_head_at_both_shapes():
    done = subprocess.run([sys.executable, str(STEPCOST), "--reps", "1"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[2:]]
    assert [row[:2] for row in rows] == [[shape, head] for shape in ("paper_pipeline", "wide_train")
                                         for head in ("shared_sample", "per_example", "baseline")]
    assert all(len(row) == 12 for row in rows)  # shape, head, 6 step pieces, their sum and 3 epoch pieces

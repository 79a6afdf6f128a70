"""Guards for the benchmark's tracer, which wraps library functions by name."""

import importlib.util
import math
import sys
from pathlib import Path

from bayeshead import TrainConfig, distributions, network, train_bayes, training

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    # a rename would otherwise surface only when `perfbench/run.py --trace 1` starts
    targets = _tracer_module().TARGETS
    assert targets
    for module, qualname, _, _ in targets:
        owner = module
        for part in qualname.split("."):
            assert hasattr(owner, part), f"{module.__name__}.{qualname} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{module.__name__}.{qualname}"


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


def test_shared_sample_epoch_makes_one_call_of_each_per_step(monkeypatch, tiny_task):
    counted = (network.backward, training.rmsprop_step, distributions.sample_weights,
               distributions.kl_sample_estimate)
    calls = {fn.__name__: _count_calls(monkeypatch, fn) for fn in counted}
    train, val = tiny_task
    config = TrainConfig(epochs=1, hidden_dim=4, batch_size=16, seed=3)
    train_bayes(train, val, config)
    steps = math.ceil(len(train) / config.batch_size)
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, steps)

#!/usr/bin/env python3
"""What each piece of a training step and epoch costs, in-process, without the benchmark.

    python3 tools/stepcost.py             # best of 7 timings per piece
    python3 tools/stepcost.py --reps 1    # one timing per piece: a quick smoke run

For each head (shared-sample, per-example and baseline) at two shapes, that
of ``paper_pipeline`` (400 training rows of 2 features, 2 classes, 200
validation rows) and that of ``wide_train`` (8000 rows of 64 features, 4
classes, 2000 validation rows), with hidden width 32 and batch 32, it sets
up a run as ``training._train`` does and times each piece of the loop on its
own. Per step: the batch gather, the posterior draw (the draw, then the
copy of it, its scale and mu into a row of the run's KL store),
``backward`` (with the prior pass, which writes log p into the row), ``kl``
(the block pass that forms the stored rows' KL values, a call per block of
``KL_BLOCK`` steps, given per step), ``rmsprop_step`` and the finiteness
check on the parameters. Per epoch: the shuffle's permutation, the epoch's
noise block (one ``normal`` call) and ``validate_metrics``. A per-step piece
is timed over one epoch of calls, the permutation and the noise block over
three calls, and validation as ``_train`` calls it: once, after an epoch of
the per-step pieces. Back-to-back validations of a wide set can each wait on
OpenBLAS's threads and read many times slower. The table gives the best of
``--reps`` timings in microseconds per call, and ``step`` sums the per-step
pieces. It uses numpy and the standard library only and stays out of the
test suite.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bayeshead import training  # noqa: E402
from bayeshead.data import FeatureDataset  # noqa: E402
from bayeshead.network import StepBuffers, backward  # noqa: E402
from bayeshead.training import KL_BLOCK, block_kl  # noqa: E402
from bayeshead.rng import RngStream  # noqa: E402

SHAPES = {
    "paper_pipeline": dict(train=400, val=200, dim=2, classes=2),
    "wide_train": dict(train=8000, val=2000, dim=64, classes=4),
}
HEADS = ("shared_sample", "per_example", "baseline")
STEP = ("gather", "draw", "backward", "kl", "rmsprop", "check")
EPOCH = ("permute", "noise", "validate")
EPOCH_CALLS = 3  # permutations, and epochs' noise blocks, that each timing covers


def _dataset(rng, n, dim, classes) -> FeatureDataset:
    """n rows around one mean per class, 2.5 along the class's own axis."""
    labels = np.arange(n) % classes
    means = np.zeros((classes, dim))
    means[np.arange(classes), np.arange(classes) % dim] = 2.5
    return FeatureDataset(means[labels] + rng.standard_normal((n, dim)), labels, [str(i) for i in range(n)])


def _best(fn, reps: int, calls: int, before=None) -> float:
    """Best of ``reps`` timings of ``fn``, in microseconds per one of its ``calls`` calls; ``before``,
    if given, runs untimed ahead of each timing."""
    best = math.inf
    for _ in range(reps):
        if before is not None:
            before()
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best / calls * 1e6


def measure(shape: str, head: str, reps: int) -> dict:
    """µs per call of each piece of ``head``'s training loop at ``shape``; ``kl`` and ``noise`` are None
    for the baseline."""
    spec = SHAPES[shape]
    rng = np.random.default_rng(0)
    train = _dataset(rng, spec["train"], spec["dim"], spec["classes"])
    val = _dataset(rng, spec["val"], spec["dim"], spec["classes"])
    per_example, bayesian = head == "per_example", head != "baseline"
    config = training.TrainConfig(per_example_sample=per_example)
    init = training.init_bayes_model if bayesian else training.init_baseline_model
    model = init(spec["dim"], spec["classes"], config)
    flat, _, _ = training._flatten_params(model)
    n, bs = len(train), config.batch_size
    order = RngStream(0).permutation(n)
    batches = [order[start : start + bs] for start in range(0, n, bs)]
    plans = {rows: StepBuffers(model, rows) for rows in {len(idx) for idx in batches}}  # one per batch size
    store = np.empty((4, KL_BLOCK, len(model.output.params))) if bayesian else None  # as _train's KL store
    store_rows = list(zip(*store)) if bayesian else None
    steps = len(batches)
    blocks = [min(KL_BLOCK, steps - start) for start in range(0, steps, KL_BLOCK)]
    kl_w = training.kl_weight_for(config, n) if bayesian else 0.0
    block = steps * len(model.output.params) + n * spec["classes"] * per_example if bayesian else 0
    normals = RngStream(1).normal(block) if bayesian else None

    def draws():
        noise = training._NoiseBlock(normals) if bayesian else None
        samples = []
        for j, idx in enumerate(batches):
            sample = training._draw_samples(model, noise, len(idx), per_example, False)
            if bayesian:  # as _train's step: the draw, its scale and mu before the update, into a row
                theta, mu, sigma, _ = store_rows[j % KL_BLOCK]
                theta[...], mu[...], sigma[...] = sample.theta, model.output.params.mu, sample.sigma
            samples.append(sample)
        return samples

    inputs = [(train.features[idx], train.labels[idx], sample) for idx, sample in zip(batches, draws())]

    def gather():
        for idx in batches:
            plan = plans[idx.shape[0]]
            train.features.take(idx, axis=0, out=plan.features, mode="clip")
            train.labels.take(idx, out=plan.labels, mode="clip")

    def step_backward():
        for j, (features, labels, sample) in enumerate(inputs):
            # the rows wrap round, so the kl column reads the last block the steps stored
            log_p = store_rows[j % KL_BLOCK][3] if bayesian else None
            backward(model, features, labels, sample, kl_w, plans[len(labels)], log_p)

    def kl():
        for rows in blocks:
            block_kl(store, rows, model.output.prior)

    params, accum = flat.copy(), np.zeros_like(flat)  # the update runs on a copy, so the model stays put

    def update():
        for idx in batches:
            training.rmsprop_step(params, plans[len(idx)].grad, accum, config.learning_rate)

    def check():
        for _ in batches:
            math.isfinite(np.add.reduce(flat)) or np.isfinite(flat).all()

    def repeat(fn):
        def calls():
            for _ in range(EPOCH_CALLS):
                fn()
        return calls

    step = {"gather": gather, "draw": draws, "backward": step_backward, "kl": kl if bayesian else None,
            "rmsprop": update, "check": check}

    def epoch_steps():
        for fn in step.values():
            fn and fn()

    epoch = {"permute": repeat(lambda: RngStream(2).permutation(n)),
             "noise": repeat(lambda: RngStream(3).normal(block)) if bayesian else None}
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as _train runs its loop
        out = {name: fn and _best(fn, reps, steps) for name, fn in step.items()}
        out |= {name: fn and _best(fn, reps, EPOCH_CALLS) for name, fn in epoch.items()}
        out["validate"] = _best(lambda: training.validate_metrics(model, val), reps, 1, before=epoch_steps)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=7, help="timings per piece; the table shows the best")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    columns = (*STEP, "step", *EPOCH)
    print(f"µs per call, best of {args.reps}; numpy {np.__version__}")
    print(f"{'shape':<15}{'head':<14}" + "".join(f"{c:>10}" for c in columns))
    for shape in SHAPES:
        for head in HEADS:
            cost = measure(shape, head, args.reps)
            cost["step"] = sum(cost[name] or 0.0 for name in STEP)
            cells = ("-" if cost[c] is None else f"{cost[c]:.1f}" for c in columns)
            print(f"{shape:<15}{head:<14}" + "".join(f"{c:>10}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())

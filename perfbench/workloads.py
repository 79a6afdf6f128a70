"""The three benchmark workloads: input generation, set-up and one round of work.

Each workload is one closed-loop caller. A round is a fixed amount of work,
so the counts a traced round records repeat exactly. Every workload reports
every end-to-end metric, so a round runs its main job (the part that carries
most of the time) plus small fixed companions of the other stages. Single-row
triage requests go out in batches between the round's long steps, which
spreads every metric's samples over the run.

All library calls go through the package namespace (``bh.<name>``) or
``cli.run`` at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import bayeshead as bh
from bayeshead import cli

N_DRAWS = 50
SINGLES_PER_ROUND = 500  # two rounds give the 1000 latencies a p99 needs
MIN_ROUNDS = 2  # keeps a run within about 45 s when the host is slow
PROB_SUM_TOL = 1e-9
ACCURACY_FLOOR = 0.95  # acceptance criterion 4
THRESHOLDS = bh.ReferralThresholds()
PAPER_MEANS = np.array([[-2.0, 0.0], [2.0, 0.0]])
PROBE_EVERY = 0.1  # seconds between machine-speed probes
PROBE_BURST = 8  # most probes run at once to catch up after a long operation
EVAL_CHUNK = 100  # rows per bulk evaluate call on the API workloads


class SpeedProbe:
    """The machine's speed over the run, from a fixed kernel timed between operations.

    On a shared host the same work runs tens of percent slower for stretches
    of a second or more. Each timing is divided by the local slowdown, the
    mean kernel time around it over REFERENCE, so that runs made at different
    moments compare. The kernel mixes small numpy ops with interpreter work,
    as the library's hot paths do, and runs outside every timed region.
    """

    REFERENCE = 1.0e-3  # kernel seconds on an unloaded 2.1 GHz x86-64 core
    _words = np.arange(66, dtype=np.uint64)
    _matrix = np.linspace(-0.1, 0.1, 32 * 32).reshape(32, 32)

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def maybe(self) -> None:
        """Probe once per PROBE_EVERY; after a long operation, catch up with a short burst."""
        gap = perf_counter() - self.at[-1] if self.at else PROBE_EVERY
        for _ in range(min(PROBE_BURST, int(gap / PROBE_EVERY))):
            self.probe()

    def probe(self) -> None:
        a, h, acc = self._words, np.ones(32), 0
        t0 = perf_counter()
        for i in range(200):
            a = (a ^ (a >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            h = np.tanh(self._matrix @ h + 1.0)
            acc += int(a[i % 66] >> np.uint64(63))
        t1 = perf_counter()
        self.at.append(t1)
        self.took.append(t1 - t0)

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel time over REFERENCE, from at least three probes around the interval.

        The window reaches one interval length, and at least one probe period,
        to either side: a short timing is judged by the probes next to it, a
        long one by the mean speed around it.
        """
        pad = max(PROBE_EVERY, end - start)
        while True:
            lo = bisect.bisect_left(self.at, start - pad)
            hi = bisect.bisect_right(self.at, end + pad)
            if hi - lo >= 3 or pad > 3600:
                return statistics.fmean(self.took[lo:hi]) / self.REFERENCE
            pad *= 2


class Ledger:
    """Operations attempted and failed, by kind; a failure never stops the run."""

    def __init__(self):
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.errors: list[str] = []
        self.on_op = None  # called with a request id before each operation
        self.speed = SpeedProbe()

    @contextlib.contextmanager
    def op(self, kind: str):
        self.speed.maybe()
        self.attempted[kind] += 1
        handle = _Op(self, kind, self.attempted[kind])
        if self.on_op is not None:
            self.on_op(f"{kind}#{handle.number}")
        try:
            yield handle
        except Exception as e:  # counted as a failed operation, reported below
            handle.check(False, f"{type(e).__name__}: {e}")

    def total(self) -> tuple[int, int]:
        return sum(self.attempted.values()), sum(self.failed.values())


class _Op:
    __slots__ = ("ledger", "kind", "number", "bad")

    def __init__(self, ledger, kind, number):
        self.ledger, self.kind, self.number, self.bad = ledger, kind, number, False

    def check(self, ok: bool, message: str) -> None:
        if ok:
            return
        if not self.bad:
            self.bad = True
            self.ledger.failed[self.kind] += 1
        if len(self.ledger.errors) < 50:
            self.ledger.errors.append(f"{self.kind}#{self.number}: {message}")


@dataclass
class Context:
    """What set-up hands to every round: inputs, models and reference outputs."""

    seed: int
    work: Path
    sets: dict = field(default_factory=dict)
    singles: list = field(default_factory=list)  # (set name, row) in send order
    holdout: bh.FeatureDataset | None = None
    model: bh.HeadModel | None = None  # the bayesian head that serves single rows
    extra: dict = field(default_factory=dict)
    reference: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)

    def same(self, key: str, blob: bytes) -> bool:
        """True unless an earlier round or set-up produced other bytes for ``key``."""
        digest = hashlib.sha256(blob).digest()
        return self.reference.setdefault(key, digest) == digest


# ---------------------------------------------------------------- inputs

def _dataset(features, labels, name) -> bh.FeatureDataset:
    return bh.FeatureDataset(features, labels, [f"{name}-{i}" for i in range(len(labels))], name)


def _blobs(rng, means, n, name, noise=0.0):
    """n rows around one-per-class means; ``noise`` adds a covariate shift."""
    labels = rng.integers(0, means.shape[0], n)
    features = means[labels] + rng.standard_normal((n, means.shape[1]))
    if noise:
        features = features + noise * rng.standard_normal(features.shape)
    return _dataset(features, labels, name)


def _off_manifold(rng, means, n, offset, name):
    """Rows at the class centroid pushed along an axis no class uses."""
    c, d = means.shape
    centre = means.mean(axis=0)
    centre[c] += offset
    features = centre + rng.standard_normal((n, d))
    return _dataset(features, rng.integers(0, c, n), name)


def _axis_means(n_classes, dim, radius):
    means = np.zeros((n_classes, dim))
    means[np.arange(n_classes), np.arange(n_classes)] = radius
    return means


def _singles_plan(rng, sizes: dict) -> list:
    """SINGLES_PER_ROUND rows: 60% in-distribution, 20% shifted, 20% OOD."""
    plan = []
    for name, frac in {"test": 0.6, "shifted": 0.2, "ood": 0.2}.items():
        plan += [(name, int(j)) for j in rng.integers(0, sizes[name], round(SINGLES_PER_ROUND * frac))]
    plan = plan[:SINGLES_PER_ROUND]
    return [plan[i] for i in rng.permutation(len(plan))]


# ---------------------------------------------------------------- shared stages

def _interleave(ctx, ledger, samples, steps) -> None:
    """Run the round's long steps with batches of single-row requests between them.

    Singles go to the model an earlier round left in ``ctx.model``; every
    round trains the same bits. In the first round they wait for its model.
    """
    plan = list(enumerate(ctx.singles))
    if ctx.model is None:
        for step in steps:
            step()
        _singles(ctx, ledger, samples, plan)
        return
    slots = len(steps) + 1
    cut = [round(i * len(plan) / slots) for i in range(slots + 1)]
    for i in range(slots):
        _singles(ctx, ledger, samples, plan[cut[i]:cut[i + 1]])
        if i < len(steps):
            steps[i]()


def _singles(ctx, ledger, samples, plan) -> None:
    """One caller sends rows one at a time through predict_mc + referral_decision.

    Every row uses the same stream, as ``bayeshead predict`` does.
    """
    stream = bh.RngStream(ctx.seed).derive(4)
    sets, model, lat = ctx.extra["single_sets"], ctx.model, samples["triage.single"]
    for k, (name, j) in plan:
        x = sets[name].features[j]
        with ledger.op("triage.single") as h:
            t0 = perf_counter()
            result = bh.predict_mc(model, x, N_DRAWS, stream)
            decision = bh.referral_decision(result, THRESHOLDS.uncertainty, THRESHOLDS.confidence)
            lat.append((t0, perf_counter() - t0, 1))
            err = abs(float(result.mean_probs.sum()) - 1.0)
            h.check(err <= PROB_SUM_TOL, f"mean_probs sum off by {err:.3g}")
            blob = result.mean_probs.tobytes() + decision.action.encode()
            h.check(ctx.same(f"single.{k}", blob), f"single row {k} differs from the warm-up")


def _run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run([str(a) for a in argv])


def _train(ctx, ledger, samples, parts, kind, fn, train, config, key=None):
    """One training call; with ``key`` its model is also saved and byte-compared."""
    model = None
    with ledger.op(kind):
        t0 = perf_counter()
        model, _ = fn(train, ctx.sets["val"], config)
        dt = perf_counter() - t0
        samples[kind].append((t0, dt, len(train) * config.epochs))
        if parts is not None:
            parts.append((t0, dt))
    if key is not None and model is not None:
        with ledger.op("model_io.save") as h:
            path = ctx.work / f"{key}.json"
            bh.save_model(bh.ModelArchive(model, config.to_flat_dict()), path)
            h.check(ctx.same(key, path.read_bytes()), f"{key}.json differs from the warm-up")
    return model


def _check_records(h, records) -> None:
    worst = max(abs(sum(r["mean_probs"]) - 1.0) for r in records)
    h.check(worst <= PROB_SUM_TOL, f"mean_probs sum off by {worst:.3g}")


def _evaluate(ctx, ledger, samples, parts, model, name, first) -> None:
    """Bayesian evaluate of EVAL_CHUNK rows of one set; checks sums and determinism.

    Every row gets the same stream, so its result does not depend on the chunk.
    """
    ds = ctx.sets[name].take(range(first, min(first + EVAL_CHUNK, len(ctx.sets[name]))))
    with ledger.op("eval.bayes") as h:
        t0 = perf_counter()
        report = bh.evaluate(model, ds, N_DRAWS, THRESHOLDS, bh.RngStream(ctx.seed).derive(4))
        dt = perf_counter() - t0
        samples["eval.bayes"].append((t0, dt, len(ds)))
        if parts is not None:
            parts.append((t0, dt))
        doc = report.to_dict()
        _check_records(h, doc["records"])
        h.check(ctx.same(f"report.{name}.{first}", json.dumps(doc).encode()), f"report for {name}@{first} differs")
        ctx.quality[name, first] = report


def _evaluate_steps(ctx, ledger, samples, parts, model, names) -> list:
    """One step per chunk of each named set; ``model`` is called when the step runs."""
    return [lambda name=name, first=first: _evaluate(ctx, ledger, samples, parts, model(), name, first)
            for name in names for first in range(0, len(ctx.sets[name]), EVAL_CHUNK)]


def _pipeline(samples, parts) -> None:
    """One sample of the main job's time: the sum of its steps, probes excluded."""
    if parts:  # empty only when every step failed, which the ledger reports
        samples["pipeline"].append((parts[0][0], sum(dt for _, dt in parts), 1, tuple(parts)))


def api_quality(ctx: Context) -> dict:
    def share(name, hit):
        records = [r for (n, _), report in ctx.quality.items() if n == name for r in report.records]
        return sum(map(hit, records)) / len(records)

    return {
        "shift_accuracy": share("shifted", lambda r: r.correct),
        "ood_referral_rate": share("ood", lambda r: r.action == "refer"),
        "bayes_val_nll": bh.validate_metrics(ctx.model, ctx.holdout)[1],
    }


# ---------------------------------------------------------------- paper_pipeline

PAPER_EPOCHS = 150
PAPER_PER_EXAMPLE_EPOCHS = 6


def paper_setup(seed: int, work: Path, ledger: Ledger, reference: dict) -> Context:
    ctx = Context(seed, work, reference=reference)
    rng = np.random.default_rng([seed, 0])
    # the pipeline makes its own data through `synth`; these are its seeds
    ctx.extra["synth_seeds"] = [int(s) for s in rng.integers(1, 2**31, 3)]
    ctx.holdout = _blobs(rng, PAPER_MEANS, 20000, "holdout")
    ctx.singles = _singles_plan(rng, {"test": 200, "shifted": 200, "ood": 200})
    work.mkdir(parents=True, exist_ok=True)
    cfg = work / "per_example.cfg"
    cfg.write_text("per_example_sample = true\n", encoding="utf-8")
    ctx.extra["per_example_cfg"] = cfg
    return ctx


def paper_round(ctx: Context, ledger: Ledger, samples, tag: str) -> None:
    """The README pipeline through ``cli.run``, then its companions."""
    out = ctx.work / tag
    d = out / "data"
    s_train, s_test, s_ood = ctx.extra["synth_seeds"]
    seed = ctx.seed
    names = ("test", "shifted", "ood")
    bayes_model, base_model = out / "bayes" / "model.json", out / "baseline" / "model.json"
    reports = {(head, n): out / f"eval_{head}_{n}" / "report.json" for head in ("bayes", "baseline") for n in names}
    commands = [
        ("synth.train", ["synth", "--n-per-class", 200, "--means=-2,0;2,0", "--sigma", 1.0,
                         "--name", "train", "--seed", s_train, "--out", d]),
        ("synth.test", ["synth", "--n-per-class", 100, "--means=-2,0;2,0", "--sigma", 1.0,
                        "--name", "test", "--seed", s_test, "--out", d]),
        ("synth.shifted", ["synth", "--n-per-class", 100, "--means=-2,0;2,0", "--name", "shifted",
                           "--shift-noise", 1.5, "--seed", s_test, "--out", d]),
        ("synth.ood", ["synth", "--n-per-class", 100, "--means=0,6;0,6", "--sigma", 1.0,
                       "--name", "ood", "--seed", s_ood, "--out", d]),
        ("train.bayes", ["train", "--data", d / "train.csv", "--val", d / "test.csv",
                         "--seed", seed, "--out", bayes_model.parent]),
        ("train.baseline", ["train", "--data", d / "train.csv", "--val", d / "test.csv",
                            "--seed", seed, "--baseline", "--out", base_model.parent]),
        ("predict", ["predict", "--model", bayes_model, "--data", d / "test.csv",
                     "--seed", seed, "--out", out / "predict"]),
    ]
    for (head, n), path in reports.items():
        model = bayes_model if head == "bayes" else base_model
        commands.append((f"eval.{head}.{n}", ["eval", "--model", model, "--data", d / f"{n}.csv",
                                              "--dataset-name", n, "--seed", seed, "--out", path.parent]))
    for n in names:
        commands.append((f"analyze.{n}", ["analyze", "--report", reports["bayes", n], "--out", out / "figures"]))
    commands.append(("compare", ["compare", "--bayes", *(reports["bayes", n] for n in names),
                                 "--baseline", *(reports["baseline", n] for n in names),
                                 "--out", out / "table"]))
    # companions: a per-example training, and a rerun of it and of each head that must match byte for byte
    per_example = ("train.per_example", ["train", "--data", d / "train.csv", "--val", d / "test.csv",
                                         "--seed", seed, "--config", ctx.extra["per_example_cfg"],
                                         "--epochs", PAPER_PER_EXAMPLE_EPOCHS, "--out", out / "per_example"])
    companions = [
        per_example,
        *((f"{key}.rerun", argv[:-1] + [out / f"{argv[-1].name}_rerun"])
          for key, argv in [*commands, per_example] if key.startswith("train.")),
    ]
    work = {"train.bayes": 400 * PAPER_EPOCHS, "train.baseline": 400 * PAPER_EPOCHS,
            "train.per_example": 400 * PAPER_PER_EXAMPLE_EPOCHS}
    handles, parts = {}, []

    def command(key, argv, part):
        def step():
            with ledger.op(f"cli.{argv[0]}") as h:
                handles[key] = h
                t0 = perf_counter()
                rc = _run_cli(argv)
                dt = perf_counter() - t0
                h.check(rc == 0, f"`{key}` exited {rc}")
                if part:
                    parts.append((t0, dt))
                kind = key.removesuffix(".rerun")
                if rc == 0 and kind in work:
                    samples[kind].append((t0, dt, work[kind]))
                elif rc == 0 and key.startswith("eval."):
                    samples[key.rsplit(".", 1)[0]].append((t0, dt, 200))
        return step

    def serve_model():
        """Load the trained head and the rows it will triage, as a service would."""
        with ledger.op("model_io.load"):
            ctx.model = bh.load_model(bayes_model).model
        with ledger.op("data.load"):
            ctx.extra["single_sets"] = {n: bh.load_csv(d / f"{n}.csv") for n in names}

    steps = [command(k, argv, True) for k, argv in commands]
    steps += [lambda: _pipeline(samples, parts), *(command(k, argv, False) for k, argv in companions), serve_model]
    _interleave(ctx, ledger, samples, steps)
    _check_paper_outputs(ctx, out, d, handles, reports)


def _check_paper_outputs(ctx, out, d, handles, reports) -> None:
    """Deferred output checks; each failure lands on the operation that wrote the file."""
    for key in ("train.bayes", "train.baseline", "train.per_example",
                "train.bayes.rerun", "train.baseline.rerun", "train.per_example.rerun"):
        path = out / key.split(".", 1)[1].replace(".rerun", "_rerun") / "model.json"
        if path.exists():
            kind = key.removesuffix(".rerun")
            handles[key].check(ctx.same(kind, path.read_bytes()), f"{key} model.json differs from the warm-up")

    labels, f0 = _read_labels_f0(d / "test.csv")
    oracle = float(np.mean((f0 > 0.0) == (labels == 1)))  # Bayes-optimal rule for the two blobs
    floor = min(ACCURACY_FLOOR, oracle - 0.01)
    for (head, name), path in reports.items():
        if not path.exists():
            continue
        h = handles[f"eval.{head}.{name}"]
        raw = path.read_bytes()
        doc = json.loads(raw)
        _check_records(h, doc["records"])
        h.check(ctx.same(f"report.{head}.{name}", raw), f"report.json {head}/{name} differs from the warm-up")
        if name == "test":
            h.check(doc["accuracy"] >= floor,
                    f"{head} in-dist accuracy {doc['accuracy']:.3f} < floor {floor:.3f}")
        if head == "bayes":
            ctx.quality[name] = doc
    pred = out / "predict" / "predictions.jsonl"
    if pred.exists():
        h = handles["predict"]
        raw = pred.read_bytes()
        _check_records(h, [json.loads(line) for line in raw.splitlines()[1:]])
        h.check(ctx.same("predictions", raw), "predictions.jsonl differs from the warm-up")


def _read_labels_f0(path):
    table = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2), comments="#", ndmin=2)
    return table[:, 0].astype(int), table[:, 1]


def paper_quality(ctx: Context) -> dict:
    return {
        "shift_accuracy": ctx.quality["shifted"]["accuracy"],
        "ood_referral_rate": ctx.quality["ood"]["referral_rate"],
        "bayes_val_nll": bh.validate_metrics(ctx.model, ctx.holdout)[1],
    }


# ---------------------------------------------------------------- wide_train

WIDE = dict(dim=64, classes=4, radius=2.5, train=8000, val=2000, epochs=10, pe_epochs=1, shift=0.75, ood=6.0,
            evals={"shifted": 200, "ood": 100})


def wide_setup(seed: int, work: Path, ledger: Ledger, reference: dict) -> Context:
    ctx = Context(seed, work, reference=reference)
    rng = np.random.default_rng([seed, 1])
    means = _axis_means(WIDE["classes"], WIDE["dim"], WIDE["radius"])
    ctx.sets = {
        "train": _blobs(rng, means, WIDE["train"], "train"),
        "val": _blobs(rng, means, WIDE["val"], "val"),
        "test": _blobs(rng, means, 200, "test"),
        "shifted": _blobs(rng, means, WIDE["evals"]["shifted"], "shifted", WIDE["shift"]),
        "ood": _off_manifold(rng, means, WIDE["evals"]["ood"], WIDE["ood"], "ood"),
    }
    half = WIDE["train"] // 2  # the per-example head trains on each half in turn, one call each
    ctx.sets["train_a"] = ctx.sets["train"].take(range(half))
    ctx.sets["train_b"] = ctx.sets["train"].take(range(half, WIDE["train"]))
    ctx.extra["single_sets"] = ctx.sets
    ctx.holdout = _blobs(rng, means, 10000, "holdout")
    ctx.singles = _singles_plan(rng, {n: len(ctx.sets[n]) for n in ("test", "shifted", "ood")})
    ctx.extra["config"] = bh.TrainConfig(seed=seed, epochs=WIDE["epochs"])
    ctx.extra["config_pe"] = bh.TrainConfig(seed=seed, epochs=WIDE["pe_epochs"], per_example_sample=True)
    work.mkdir(parents=True, exist_ok=True)
    return ctx


def wide_round(ctx: Context, ledger: Ledger, samples, tag: str) -> None:
    """Train the three heads on the wide set; evaluate the bayesian one on two small sets.

    Companions train the baseline and shared-sample heads again on each half
    of the set, between the evaluate calls, so that their rates are taken
    over more of the host's time.
    """
    train, cfg, cfg_pe = ctx.sets["train"], ctx.extra["config"], ctx.extra["config_pe"]
    parts, trained = [], {}

    def bayes():
        trained["bayes"] = _train(ctx, ledger, samples, parts, "train.bayes", bh.train_bayes, train, cfg, "bayes")

    def serve_model():
        ctx.model = trained.get("bayes")

    halves = [lambda half=half, kind=kind, fn=fn: _train(ctx, ledger, samples, None, kind, fn, ctx.sets[half], cfg)
              for half in ("train_a", "train_b")
              for kind, fn in (("train.baseline", bh.train_baseline), ("train.bayes", bh.train_bayes))]
    evals = _evaluate_steps(ctx, ledger, samples, None, lambda: trained.get("bayes"), WIDE["evals"])
    _interleave(ctx, ledger, samples, [
        lambda: _train(ctx, ledger, samples, parts, "train.baseline", bh.train_baseline, train, cfg, "baseline"),
        bayes,
        *(lambda half=half: _train(ctx, ledger, samples, parts, "train.per_example", bh.train_bayes,
                                   ctx.sets[half], cfg_pe) for half in ("train_a", "train_b")),
        lambda: _pipeline(samples, parts),
        *(step for pair in zip(halves, [*evals, serve_model], strict=True) for step in pair),
    ])


# ---------------------------------------------------------------- triage

TRIAGE = dict(dim=32, classes=4, radius=3.0, train=2000, val=500, epochs=10, base_epochs=30, shift=1.5, ood=8.0,
              bulk={"test": 200, "shifted": 200, "ood": 200})


def triage_setup(seed: int, work: Path, ledger: Ledger, reference: dict) -> Context:
    ctx = Context(seed, work, reference=reference)
    rng = np.random.default_rng([seed, 2])
    means = _axis_means(TRIAGE["classes"], TRIAGE["dim"], TRIAGE["radius"])
    bulk = TRIAGE["bulk"]
    ctx.sets = {
        "train": _blobs(rng, means, TRIAGE["train"], "train"),
        "val": _blobs(rng, means, TRIAGE["val"], "val"),
        "test": _blobs(rng, means, bulk["test"], "test"),
        "shifted": _blobs(rng, means, bulk["shifted"], "shifted", TRIAGE["shift"]),
        "ood": _off_manifold(rng, means, bulk["ood"], TRIAGE["ood"], "ood"),
    }
    ctx.extra["single_sets"] = ctx.sets
    ctx.holdout = _blobs(rng, means, 10000, "holdout")
    ctx.singles = _singles_plan(rng, bulk)
    cfg = bh.TrainConfig(seed=seed, epochs=TRIAGE["epochs"])
    ctx.extra["config"] = cfg
    ctx.extra["base_config"] = bh.TrainConfig(seed=seed, epochs=TRIAGE["base_epochs"])
    ctx.extra["pe_config"] = bh.TrainConfig(seed=seed, epochs=1, per_example_sample=True)
    # the triage service's model: trained here, saved and loaded as a deployment would
    with ledger.op("setup.train"):
        model, _ = bh.train_bayes(ctx.sets["train"], ctx.sets["val"], cfg)
    work.mkdir(parents=True, exist_ok=True)
    path = work / "triage_model.json"
    with ledger.op("model_io.save") as h:
        bh.save_model(bh.ModelArchive(model, cfg.to_flat_dict()), path)
        h.check(ctx.same("setup.model", path.read_bytes()), "set-up model differs between set-ups")
    with ledger.op("model_io.load"):
        ctx.model = bh.load_model(path).model
    return ctx


def triage_round(ctx: Context, ledger: Ledger, samples, tag: str) -> None:
    """Bulk evaluate of the triage rows with small training companions between its calls; singles between.

    Each companion runs twice a round, half a round apart, so that its rate
    is taken over more of the host's time.
    """
    train, cfg, parts = ctx.sets["train"], ctx.extra["config"], []
    companions = [
        lambda: _train(ctx, ledger, samples, None, "train.baseline", bh.train_baseline, train,
                       ctx.extra["base_config"]),
        lambda: _train(ctx, ledger, samples, None, "train.bayes", bh.train_bayes, train, cfg),
        lambda: _train(ctx, ledger, samples, None, "train.per_example", bh.train_bayes, train,
                       ctx.extra["pe_config"]),
    ] * 2
    evals = _evaluate_steps(ctx, ledger, samples, parts, lambda: ctx.model, TRIAGE["bulk"])
    steps = [step for pair in zip(evals, companions, strict=True) for step in pair]
    _interleave(ctx, ledger, samples, [*steps, lambda: _pipeline(samples, parts)])


@dataclass(frozen=True)
class Workload:
    setup: object
    round: object
    quality: object
    bypassed: tuple  # per-layer metric prefixes this workload must leave at zero


WORKLOADS = {
    "paper_pipeline": Workload(paper_setup, paper_round, paper_quality, ()),
    "wide_train": Workload(wide_setup, wide_round, api_quality,
                           ("cli.", "data.", "model_io.load_s", "analytics.kde_s", "analytics.histogram_s")),
    "triage": Workload(triage_setup, triage_round, api_quality,
                       ("cli.", "data.", "model_io.", "analytics.kde_s", "analytics.histogram_s")),
}

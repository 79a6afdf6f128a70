#!/usr/bin/env python3
"""bayeshead benchmark: one closed-loop caller per workload, timed rounds of work.

    python3 perfbench/run.py                       # every workload, one after another
    python3 perfbench/run.py --workload triage --seed 3 --seconds 30 --trace 0

A run sets up several times (the first set-up is warm-up), runs one untimed
warm-up round, then repeats rounds for ``--seconds``. With ``--trace 0`` it
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer metrics,
including the tracing overhead. The last line of standard output is the
result as one JSON object; the lines before it are a readable table. Full
results go to ``.perfbench/results/`` and spans to ``.perfbench/trace/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUPS = 5  # measured set-ups, after one warm-up set-up
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # numpy backs arrays of 4 MiB or more with transparent huge pages when the host has some free,
    # which moves peak RSS by up to 7 MiB between runs of the same work; with 4 KiB pages peak RSS
    # follows the memory the program touches. Set before numpy is first imported.
    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "bayeshead" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no bayeshead sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    return run_one(args, spec)


# ---------------------------------------------------------------- one workload

def run_one(args, spec) -> int:
    sys.path.insert(0, str(SRC))
    import bayeshead

    if Path(bayeshead.__file__).resolve().parent != (SRC / "bayeshead").resolve():
        print(f"error: imported bayeshead from {bayeshead.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    ledger = wl.Ledger()
    samples = defaultdict(list)
    reference: dict = {}
    quality: dict = {}
    try:
        speed = ledger.speed
        imports, setups = [], []
        for i in range(1 + SETUPS):
            speed.probe()
            t0 = perf_counter()
            _import_package()
            imports.append((t0, perf_counter() - t0))
            speed.probe()
            t0 = perf_counter()
            ctx = workload.setup(args.seed, work / f"setup{i}", ledger, reference)
            setups.append((t0, perf_counter() - t0))
        speed.probe()

        t0 = perf_counter()
        workload.round(ctx, ledger, defaultdict(list), "warmup")
        warmup_s = perf_counter() - t0

        if args.trace:
            rounds, per_layer, tracer = _traced_window(args, workload, ctx, ledger)
        else:
            rounds = _timed_window(args, workload, ctx, ledger, samples, wl.MIN_ROUNDS)
        with ledger.op("quality"):
            quality = workload.quality(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = ledger.total()
    if args.trace:
        metrics, rows = _layer_metrics(spec, per_layer)
        raw_rows = None
        problems = _check_layers(spec, metrics, workload.bypassed)
        tracer.write(OUT / "trace" / f"{args.workload}-seed{args.seed}.npz")
    else:
        metrics, rows = _end_to_end(spec, samples, imports, setups, quality, ledger.speed.slowdown)
        _, raw_rows = _end_to_end(spec, samples, imports, setups, quality, lambda start, end: 1.0)
        problems = _check_end_to_end(spec, metrics)
    if problems and not failed:
        for p in problems:
            print(f"self-check: {p}", file=sys.stderr)
        return 3

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(args),
        "warmup_s": warmup_s, "warmup_import_s": imports[0][1], "warmup_setup_s": setups[0][1],
        "import_s": [d for _, d in imports[1:]], "setup_only_s": [d for _, d in setups[1:]], "rounds_s": rounds,
        "speed_probe_s": ledger.speed.took, "table_unadjusted": raw_rows,
        "operations": {k: {"attempted": ledger.attempted[k], "failed": ledger.failed[k]}
                       for k in sorted(ledger.attempted)},
        "errors": ledger.errors, "table": rows,
        "samples": {k: {"n": len(v), "median_s": statistics.median(e[1] for e in v),
                        "work_per_sample": v[0][2]} for k, v in samples.items() if v},
        "calls": {k: [(e[0], e[1], e[2], ledger.speed.slowdown(e[0], e[0] + e[1])) for e in v]
                  for k, v in samples.items()},  # start, unadjusted seconds, work, slowdown
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**details, "result": result}, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"{'metric':28s} {'unit':18s} {'value':>14s} {'slow tail':>20s} {'n':>6s}")
    for r in rows:
        tail = f"{r['tail'][0]} {r['tail'][1]:.6g}" if r["tail"] else "-"
        value = "n/a" if r["value"] is None else f"{r['value']:.6g}"
        print(f"{r['name']:28s} {r['unit']:18s} {value:>14s} {tail:>20s} {r['n']:>6}")
    print(f"warm-up round {warmup_s:.3f} s, warm-up import {imports[0][1]:.3f} s and set-up {setups[0][1]:.3f} s "
          f"(excluded); rounds {json.dumps(rounds)}")
    print(f"operations: attempted {attempted}, succeeded {attempted - failed}, failed {failed}; by kind "
          + ", ".join(f"{k} {ledger.attempted[k]}/{ledger.failed[k]} failed" for k in sorted(ledger.attempted)))
    print("provenance: " + json.dumps(details["provenance"]))
    for e in ledger.errors[:10]:
        print(f"failed: {e}")
    print(json.dumps(result), flush=True)
    return 0


def _import_package() -> None:
    """Start a fresh interpreter and import the package, as every CLI call does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run([sys.executable, "-c", "import bayeshead"], cwd=ROOT, env=env, check=True, timeout=120)


def _timed_window(args, workload, ctx, ledger, samples, min_rounds) -> list:
    rounds = []
    started = perf_counter()
    while True:
        t0 = perf_counter()
        workload.round(ctx, ledger, samples, f"r{len(rounds)}")
        rounds.append(perf_counter() - t0)
        elapsed = perf_counter() - started
        if len(rounds) >= min_rounds and elapsed + statistics.median(rounds) > args.seconds:
            return rounds


def _traced_window(args, workload, ctx, ledger):
    """Alternate untraced and traced rounds; layer numbers come from traced ones."""
    from tracer import Tracer, is_time

    tracer = Tracer()
    plain, traced, layers = [], [], []
    started = perf_counter()
    while True:
        t0 = perf_counter()
        workload.round(ctx, ledger, defaultdict(list), f"p{len(plain)}")
        plain.append(perf_counter() - t0)

        tracer.install()
        ledger.on_op = tracer.set_request
        mark = tracer.mark()
        t0 = perf_counter()
        try:
            workload.round(ctx, ledger, defaultdict(list), f"t{len(traced)}")
        finally:
            traced.append(perf_counter() - t0)
            tracer.uninstall()
            ledger.on_op = None
        layers.append(tracer.summarize(mark))
        if perf_counter() - started + plain[-1] + traced[-1] > args.seconds:
            break

    counts = [k for k in layers[0] if not is_time(k)]
    with ledger.op("trace.counts") as h:
        for later in layers[1:]:
            h.check(all(later[k] == layers[0][k] for k in counts), "layer counts differ between traced rounds")
    per_layer = {k: (layers[0][k] if k in counts else statistics.median(r[k] for r in layers))
                 for k in layers[0]}
    overhead = statistics.median(traced) - statistics.median(plain)
    per_layer["trace.overhead_s"] = overhead
    per_layer["trace.overhead_frac"] = overhead / statistics.median(plain)
    return {"untraced": plain, "traced": traced}, per_layer, tracer


# ---------------------------------------------------------------- metrics

def _tail(values, higher_is_better):
    """Highest percentile with at least ten samples beyond it, on the slow side."""
    n = len(values)
    ordered = sorted(values, reverse=higher_is_better)
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            label = f"p{100 - p:g}" if higher_is_better else f"p{p:g}"
            return label, ordered[math.ceil(p / 100.0 * n) - 1]
    return None


THROUGHPUT = {"bayes_train_eps": "train.bayes", "baseline_train_eps": "train.baseline",
              "per_example_train_eps": "train.per_example", "eval_rows_per_s": "eval.bayes"}


def _end_to_end(spec, samples, imports, setups, quality, slowdown):
    """End-to-end metrics; each timing is first divided by the machine's local slowdown.

    Timings are medians. A throughput is the work of all its calls over their
    summed time, which weighs every call by its length.
    """
    def steady(t0, dt, work=1, parts=None):
        if parts:  # a sum of steps: adjust each step by the speed around it
            return sum(d / slowdown(t, t + d) for t, d in parts), work
        return dt / slowdown(t0, t0 + dt), work

    timed = {k: [steady(*entry) for entry in v] for k, v in samples.items()}
    latencies = [d * 1e3 for d, _ in timed.get("triage.single", ())]
    metrics, rows = {}, []
    for m in spec["end_to_end"]:
        name, unit = m["name"], m["unit"]
        try:
            value, n, tail = _one_metric(name, timed, latencies, imports, setups, quality, steady)
        except (KeyError, IndexError, ValueError, ZeroDivisionError):  # no samples: an operation failed
            value, n, tail = None, 0, None
        metrics[name] = (value, unit)
        rows.append({"name": name, "unit": unit, "value": value, "tail": tail, "n": n})
    return metrics, rows


def _one_metric(name, timed, latencies, imports, setups, quality, steady):
    """(value, sample count, slow-side tail or None) of one end-to-end metric."""
    if name == "setup_s":
        value = (statistics.median(steady(*e)[0] for e in imports[1:])
                 + statistics.median(steady(*e)[0] for e in setups[1:]))
        return value, len(setups) - 1, None
    if name == "pipeline_s":
        values = [d for d, _ in timed["pipeline"]]
        return statistics.median(values), len(values), _tail(values, False)
    if name in THROUGHPUT:
        calls = timed[THROUGHPUT[name]]
        value = sum(w for _, w in calls) / sum(d for d, _ in calls)
        return value, len(calls), _tail([w / d for d, w in calls], True)
    if name == "triage_p50_ms":
        return statistics.median(latencies), len(latencies), _tail(latencies, False)
    if name == "triage_mean_ms":
        return statistics.fmean(latencies), len(latencies), _tail(latencies, False)
    if name == "peak_rss_mb":
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1, None
    return quality[name], 1, None


def _layer_metrics(spec, per_layer):
    metrics, rows = {}, []
    for m in spec["per_layer"]:
        value = per_layer.get(m["name"])
        metrics[m["name"]] = (value, m["unit"])
        rows.append({"name": m["name"], "unit": m["unit"], "value": value, "tail": None, "n": 1})
    return metrics, rows


def _check_end_to_end(spec, metrics) -> list:
    problems = _check_names(spec["end_to_end"], metrics)
    for name, (value, _) in metrics.items():
        if value is None or not math.isfinite(value) or value <= 0:
            problems.append(f"{name} = {value}: an end-to-end metric must be a positive number")
    return problems


def _check_layers(spec, metrics, bypassed) -> list:
    problems = _check_names(spec["per_layer"], metrics)
    for name, (value, _) in metrics.items():
        if value is None or not math.isfinite(value):
            problems.append(f"{name} = {value} is not a number")
        elif name.startswith("trace."):
            continue
        elif name == "cli.failed" or name.startswith(bypassed):
            if value != 0:
                problems.append(f"{name} = {value}, but this workload should leave it at 0")
        elif value <= 0:
            problems.append(f"{name} = {value}, but this workload exercises it")
    return problems


def _check_names(entries, metrics) -> list:
    expected = {m["name"]: m["unit"] for m in entries}
    problems = [f"metric {k} is not emitted" for k in expected if k not in metrics]
    problems += [f"metric {k} is not in BENCHMARK.json" for k in metrics if k not in expected]
    problems += [f"{k} has unit {u!r}, BENCHMARK.json says {expected[k]!r}"
                 for k, (_, u) in metrics.items() if k in expected and u != expected[k]]
    return problems


# ---------------------------------------------------------------- provenance

def provenance(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                       "MKL_NUM_THREADS") if k in os.environ},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload_seed": args.seed,
    }


def _blas_threads():
    """Threads the loaded OpenBLAS will use; read, never set."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bayeshead").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------- all workloads

def run_all(args, names) -> int:
    results, ok = {}, True
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
        ok &= results[name]["correct"]
        print()
    summary = {"correct": ok,
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "workloads": results}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

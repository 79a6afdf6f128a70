"""Layer tracing from outside the library: wrap public functions, record spans.

Each traced function is replaced at every module attribute that refers to
it (callers such as ``training`` import ``backward`` by name), so the
wrapper sees calls from inside the library as well as from the benchmark.
A call records a span: name, start, end, parent span and request id. Spans
stay in memory in flat arrays and are written out once, when the run ends.
A span's self time is its duration minus the time its direct children
cover; calls are synchronous on one thread, so children never overlap.
"""

from __future__ import annotations

import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

from bayeshead import analytics, cli, core, data, distributions, inference, model_io, network, rng, training


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _words_normal(t, args, kwargs, result):
    t.add_words(2 * _arg(args, kwargs, 1, "n"))


def _words_permutation(t, args, kwargs, result):
    n = _arg(args, kwargs, 1, "n")
    if n > 1:
        t.add_words(n - 1)


def _count(key, amount=1):
    def hook(t, args, kwargs, result):
        t.counts[key] += amount
    return hook


def _predict_mc(t, args, kwargs, result):
    t.counts["inference.rows"] += 1
    t.counts["inference.mc_rows"] += 1
    t.counts["inference.draws"] += _arg(args, kwargs, 2, "n")


def _rows_read(t, args, kwargs, result):
    t.counts["data.rows_read"] += len(result)


def _bytes_written(t, args, kwargs, result):
    t.counts["model_io.bytes_written"] += Path(_arg(args, kwargs, 1, "path")).stat().st_size


def _cli_failed(t, args, kwargs, result):
    if result != 0:
        t.counts["cli.failed"] += 1


# (module, function, group, hook). A group's time sums its outermost spans.
_FWD = "network.forward"
TARGETS = [
    (rng, "RngStream.normal", None, _words_normal),
    (rng, "RngStream.permutation", None, _words_permutation),
    (rng, "RngStream.derive", None, _count("rng.derive_calls")),
    (core, "softmax", None, _count("core.softmax_calls")),
    (core, "log_softmax", None, None),
    (core, "softplus", None, None),
    (core, "inv_softplus", None, None),
    (core, "sigmoid", None, None),
    (distributions, "sample_weights", None, _count("distributions.draws")),
    (distributions, "sample_from_epsilon", None, None),
    (distributions, "mean_sample", None, None),
    (distributions, "kl_sample_estimate", None, _count("distributions.kl_evals")),
    (distributions, "mc_kl", None, _count("distributions.kl_evals")),
    (distributions, "spike_slab_log_pdf", None, None),
    (distributions, "spike_slab_score", None, None),
    (distributions, "gaussian_log_pdf", None, None),
    (network, "dense_forward", _FWD, None),
    (network, "batch_forward", _FWD, None),
    (network, "bayes_forward", _FWD, None),
    (network, "mean_forward", _FWD, None),
    (network, "batch_nll", None, None),
    (network, "backward", "network.backward", _count("network.backward_calls")),
    (training, "train_bayes", "training.train", None),
    (training, "train_baseline", "training.train", None),
    (training, "rmsprop_step", "training.step", _count("training.steps")),
    (training, "validate_metrics", "training.validate", None),
    (training, "elbo_loss", None, None),
    (training, "init_bayes_model", None, None),
    (training, "init_baseline_model", None, None),
    (training, "write_history_csv", None, None),
    (inference, "predict_mc", "inference.predict", _predict_mc),
    (inference, "predict_deterministic", "inference.predict", _count("inference.rows")),
    (inference, "predictive_from_samples", "inference.summary", None),
    (inference, "referral_decision", None, None),
    (inference, "entropy_bits", None, None),
    (inference, "credible_interval", None, None),
    (analytics, "evaluate", "analytics.evaluate", None),
    (analytics, "kde", "analytics.kde", None),
    (analytics, "silverman_bandwidth", None, None),
    (analytics, "entropy_histogram", "analytics.histogram", None),
    (analytics, "compare_report", None, None),
    (analytics, "comparison_csv", None, None),
    (analytics, "kde_csv", None, None),
    (analytics, "entropy_histogram_csv", None, None),
    (data, "load_csv", "data.load", _rows_read),
    (data, "save_csv", "data.save", None),
    (data, "synth_blobs", "data.synth", None),
    (data, "synth_shift", "data.synth", None),
    (data, "split", None, None),
    (data, "split_counts", None, None),
    (data, "balance_downsample", None, None),
    (model_io, "save_model", "model_io.save", _bytes_written),
    (model_io, "load_model", "model_io.load", None),
    (cli, "run", None, _cli_failed),
    *((cli, f"cmd_{c}", f"cli.{c}", None) for c in ("synth", "train", "predict", "eval", "analyze", "compare")),
]

COUNT_KEYS = ("rng.words", "rng.derive_calls", "inference.rows", "inference.mc_rows", "inference.draws",
              "inference.words", "core.softmax_calls", "distributions.draws", "distributions.kl_evals",
              "network.backward_calls", "training.steps", "data.rows_read", "model_io.bytes_written",
              "cli.failed")


def is_time(metric: str) -> bool:
    """Times vary run to run; every other per-layer number repeats exactly."""
    last = metric.rsplit(".", 1)[-1]
    return last == "s" or last.endswith("_s") or last.startswith("s_per")


class Tracer:
    """Installs wrappers on demand; records spans and counts while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.group_of: list[int] = []
        self.layers: list[str] = []
        self.groups: list[str] = []
        self.requests: list[str] = [""]
        self.request = 0
        self.name = array("i")
        self.parent = array("q")
        self.outer = array("b")  # bit 0: outermost in its layer, bit 1: in its group
        self.req = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.open_layer: list[int] = []
        self.open_group: list[int] = []
        self.open_mc = 0
        self.counts: dict = dict.fromkeys(COUNT_KEYS, 0)
        self._patches: list = []
        self._wrappers = [self._wrap(*target) for target in TARGETS]

    # ---------------------------------------------------------------- wrapping

    def _index(self, table: list, key: str) -> int:
        if key not in table:
            table.append(key)
        return table.index(key)

    def _wrap(self, module, qualname, group, hook):
        owner, attr = module, qualname
        if "." in qualname:
            cls, attr = qualname.split(".")
            owner = getattr(module, cls)
        fn = getattr(owner, attr)
        layer = module.__name__.rsplit(".", 1)[1]
        name_id = len(self.names)
        self.names.append(f"{layer}.{attr}")
        layer_id = self._index(self.layers, layer)
        group_id = self._index(self.groups, group) if group else -1
        self.layer_of.append(layer_id)
        self.group_of.append(group_id)
        is_mc = qualname == "predict_mc"
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            stack, open_layer, open_group = tracer.stack, tracer.open_layer, tracer.open_group
            flags = (open_layer[layer_id] == 0) | ((group_id >= 0 and open_group[group_id] == 0) << 1)
            tracer.name.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.outer.append(flags)
            tracer.req.append(tracer.request)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            open_layer[layer_id] += 1
            if group_id >= 0:
                open_group[group_id] += 1
            if is_mc:
                tracer.open_mc += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                stack.pop()
                open_layer[layer_id] -= 1
                if group_id >= 0:
                    open_group[group_id] -= 1
                if is_mc:
                    tracer.open_mc -= 1
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return owner, attr, fn, wrapper

    def add_words(self, n: int) -> None:
        self.counts["rng.words"] += n
        if self.open_mc:
            self.counts["inference.words"] += n

    def set_request(self, label: str) -> None:
        self.request = len(self.requests)
        self.requests.append(label)

    def install(self) -> None:
        """Swap every reference to a traced function for its wrapper."""
        self.open_layer = [0] * len(self.layers)
        self.open_group = [0] * len(self.groups)
        modules = [m for n, m in sys.modules.items() if n == "bayeshead" or n.startswith("bayeshead.")]
        for owner, attr, fn, wrapper in self._wrappers:
            sites = [(owner, attr)] if isinstance(owner, type) else [
                (m, a) for m in modules for a, v in vars(m).items() if v is fn
            ]
            for m, a in sites:
                setattr(m, a, wrapper)
                self._patches.append((m, a, fn))

    def uninstall(self) -> None:
        for m, a, fn in reversed(self._patches):
            setattr(m, a, fn)
        self._patches.clear()

    # ---------------------------------------------------------------- reading

    def mark(self) -> tuple[int, dict]:
        return len(self.start), dict(self.counts)

    def summarize(self, mark: tuple[int, dict]) -> dict:
        """Per-layer times and counts for the spans and counts since ``mark``."""
        base, counts0 = mark
        n = len(self.start) - base
        counts = {k: self.counts[k] - counts0[k] for k in COUNT_KEYS}
        name = np.array(self.name[base:], dtype=np.int64)
        parent = np.array(self.parent[base:], dtype=np.int64) - base
        outer = np.array(self.outer[base:], dtype=np.int64)
        dur = np.array(self.end[base:]) - np.array(self.start[base:])
        child = np.zeros(n)
        inside = parent >= 0
        np.add.at(child, parent[inside], dur[inside])
        self_time = dur - child
        layer = np.asarray(self.layer_of, dtype=np.int64)[name]
        group = np.asarray(self.group_of, dtype=np.int64)[name]

        def layer_s(key):
            sel = (layer == self.layers.index(key)) & (outer & 1).astype(bool)
            return float(dur[sel].sum())

        def layer_self(key):
            return float(self_time[layer == self.layers.index(key)].sum())

        def group_s(key):
            sel = (group == self.groups.index(key)) & (outer & 2).astype(bool)
            return float(dur[sel].sum())

        def group_calls(key):
            return int(((group == self.groups.index(key)) & (outer & 2).astype(bool)).sum())

        mc_rows = counts["inference.mc_rows"]
        steps = counts["training.steps"]
        out = {
            "rng.words": counts["rng.words"],
            "rng.derive_calls": counts["rng.derive_calls"],
            "rng.s": layer_s("rng"),
            "inference.rows": counts["inference.rows"],
            "inference.draws": counts["inference.draws"],
            "inference.words_per_row": counts["inference.words"] / mc_rows if mc_rows else 0.0,
            "inference.predict_s": group_s("inference.predict"),
            "inference.summary_s": group_s("inference.summary"),
            "core.softmax_calls": counts["core.softmax_calls"],
            "core.s": layer_s("core"),
            "distributions.draws": counts["distributions.draws"],
            "distributions.kl_evals": counts["distributions.kl_evals"],
            "distributions.s": layer_s("distributions"),
            "network.forward_calls": group_calls(_FWD),
            "network.forward_s": group_s(_FWD),
            "network.backward_calls": counts["network.backward_calls"],
            "network.backward_s": group_s("network.backward"),
            "training.steps": steps,
            "training.step_s": group_s("training.step"),
            "training.validate_s": group_s("training.validate"),
            "training.self_s": layer_self("training"),
            "training.s_per_step": group_s("training.train") / steps if steps else 0.0,
            "analytics.evaluate_s": group_s("analytics.evaluate"),
            "analytics.self_s": layer_self("analytics"),
            "analytics.kde_s": group_s("analytics.kde"),
            "analytics.histogram_s": group_s("analytics.histogram"),
            "data.rows_read": counts["data.rows_read"],
            "data.load_s": group_s("data.load"),
            "data.save_s": group_s("data.save"),
            "data.synth_s": group_s("data.synth"),
            "model_io.bytes_written": counts["model_io.bytes_written"],
            "model_io.save_s": group_s("model_io.save"),
            "model_io.load_s": group_s("model_io.load"),
        }
        for c in ("synth", "train", "predict", "eval", "analyze", "compare"):
            out[f"cli.{c}_s"] = group_s(f"cli.{c}")
        out["cli.failed"] = counts["cli.failed"]
        out["spans"] = n
        return out

    def write(self, path: Path) -> None:
        """All spans recorded in this run, as flat arrays in one compressed file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            requests=np.array(self.requests),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            request=np.array(self.req, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
        )


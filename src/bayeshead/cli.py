"""Command-line pipeline: synth -> train -> predict/eval -> analyze -> compare, and the
shift study that runs all of it over seeds.

Every command is deterministic given (--seed, config, inputs): reruns
produce byte-identical artifacts.  Exit codes: 0 success, 1 numeric or
training failure, 2 usage or input error.  synth, train, predict and eval
take --seed and --config; ``_settings`` resolves each of their settings as
flag > config file > the default its owner declares (``TrainConfig``,
``ReferralThresholds``, ``inference.MC_SAMPLES`` and ``CI_LEVEL``); a file value that does not
parse is named with its file and key, and a seed must lie in [0, 2**64).  All of
them read one flat file, so a key that no command reads is an input error.  The effective
configuration is echoed into every artifact.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import asdict
from functools import cache, partial
from pathlib import Path

from . import analytics, data, model_io, training
from .errors import NumericError
from .inference import CI_LEVEL, MC_SAMPLES, ReferralThresholds
from .rng import RngStream, check_seed
from .training import TrainConfig

_PREDICT_STREAM_KEY = 4

# predict/eval settings and their defaults, each read from the module that owns it
_PREDICTION_DEFAULTS = {
    "seed": TrainConfig.seed,
    "mc_samples_predict": MC_SAMPLES,
    "uncertainty_threshold": ReferralThresholds.uncertainty,
    "confidence_threshold": ReferralThresholds.confidence,
    "ci_level": CI_LEVEL,
}
_CONFIG_KEYS = {*TrainConfig().to_flat_dict(), *_PREDICTION_DEFAULTS}
_HIST_BINS = 20  # entropy-histogram bins of analyze and study
_CONTROL = re.compile(r"[\x00-\x1f\x7f-\x9f]")  # the C0 and C1 control characters and DEL


def parse_config_file(path) -> dict:
    """Flat ``key = value`` file; '#' comments and blank lines ignored, and no key may repeat."""
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: {e}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ValueError(f"{path}: key {key!r} appears on line {first_line[key]} and again on line {lineno}")
        out[key], first_line[key] = value, lineno
    return out


def _settings(args, defaults: dict) -> dict:
    """Each key of ``defaults``: its flag if set, else the config file's text (or
    the default) parsed to the default's type.  A file key no command reads is an error."""
    file_config = parse_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_config) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"{args.config}: unknown config keys: {unknown}")
    settings = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        raw = file_config.get(key, default)
        try:  # a default always parses, so a failure is the file's value
            settings[key] = flag if flag is not None else training.parse_like(default, raw)
        except ValueError as e:
            raise ValueError(f"{args.config}: key {key!r}: {e}") from None
    if "seed" in settings:
        check_seed(settings["seed"])
    return settings


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_text(path: Path, text: str) -> None:
    with data.atomic_write(path) as fh:
        fh.write(text)


def cmd_train(args) -> int:
    config = TrainConfig.from_flat_dict(_settings(args, TrainConfig().to_flat_dict()))
    train_set = data.load_csv(args.data)
    val_set = data.load_csv(args.val) if args.val else train_set

    if args.baseline:
        model, history = training.train_baseline(train_set, val_set, config)
    else:
        model, history = training.train_bayes(train_set, val_set, config)

    out = _out_dir(args.out)
    archive = model_io.ModelArchive(
        model=model,
        train_config=config.to_flat_dict(),
        seed_provenance={"seed": config.seed, "scheme": "counter-based; init/shuffle/eps substreams"},
    )
    model_path = out / "model.json"
    model_io.save_model(archive, model_path)
    training.write_history_csv(history, out / "history.csv", config)

    if history.epochs:
        best = history.epochs[history.best_epoch]
        print(
            f"train: variant={model.variant} epochs={len(history.epochs)} "
            f"best_epoch={history.best_epoch} val_accuracy={best.val_accuracy:.4f} "
            f"val_nll={best.val_nll:.6f} model={model_path}"
        )
    else:
        print(f"train: variant={model.variant} epochs=0 model={model_path}")
    return 0


def _prediction_settings(args):
    """Draw count, thresholds, CI level and stream shared by predict and eval,
    plus the echo of the settings that fix their output."""
    settings = _settings(args, _PREDICTION_DEFAULTS)
    n, ci_level = settings["mc_samples_predict"], settings["ci_level"]
    if n < 1:  # the baseline never draws, so nothing downstream would catch it
        raise ValueError(f"--n (mc_samples_predict) must be >= 1, got {n}")
    thresholds = ReferralThresholds(settings["uncertainty_threshold"], settings["confidence_threshold"])
    echo = {"mc_samples" if k == "mc_samples_predict" else k: v for k, v in settings.items()}
    return n, thresholds, ci_level, RngStream(settings["seed"]).derive(_PREDICT_STREAM_KEY), echo


def cmd_predict(args) -> int:
    n, thresholds, ci_level, stream, echo = _prediction_settings(args)
    archive = model_io.load_model(args.model)
    dataset = data.load_csv(args.data)
    records = analytics.predict_records(archive.model, dataset, n, thresholds, stream, ci_level)

    path = _out_dir(args.out) / "predictions.jsonl"
    data.write_json(path, {"record_type": "header", "schema_version": 1, **echo}, *(r.to_dict() for r in records))
    print(f"predict: n={n} rows={len(dataset)} out={path}")
    return 0


def cmd_eval(args) -> int:
    n, thresholds, ci_level, stream, echo = _prediction_settings(args)
    name = _plain_name(args.dataset_name or Path(args.data).stem)  # "" names it by the file stem
    archive = model_io.load_model(args.model)
    dataset = data.load_csv(args.data, name=name)
    report = analytics.evaluate(archive.model, dataset, n, thresholds, stream, ci_level=ci_level)
    echo["variant"] = archive.model.variant
    path = _out_dir(args.out) / "report.json"
    data.write_json(path, report.to_dict(config=echo))
    print(
        f"eval: dataset={report.dataset_name} accuracy={report.accuracy:.4f} "
        f"referral_rate={report.referral_rate:.4f} out={path}"
    )
    return 0


def _read_report(path) -> analytics.EvalReport:
    doc = data.read_json(path)  # its errors name the file
    try:
        return analytics.EvalReport.from_dict(doc)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _plain_name(name: str) -> str:
    """``name`` if it can stem a file name inside an output directory, else a ValueError:
    no path separator, no control character (a line break among them) and not '.' or '..'."""
    if name in ("", ".", "..") or "/" in name or "\\" in name or _CONTROL.search(name):
        raise ValueError(f"dataset_name {name!r} is not a plain file name")
    return name


def _write_figures(report: analytics.EvalReport, out, echo: dict, bins: int) -> None:
    """``<dataset_name>_uncertainty_kde.csv`` and ``<dataset_name>_entropy_hist.csv`` in ``out``,
    both built before either is written; the KDE is skipped, with a note, where it is undefined."""
    stem = _plain_name(report.dataset_name)
    try:
        kde_text = analytics.kde_csv(analytics.kde([r.uncertainty for r in report.records]), echo)
    except ValueError as e:
        kde_text = None
        print(f"skipping the KDE of {stem} ({e})", file=sys.stderr)
    hist = analytics.entropy_histogram(
        [(r.entropy_bits, r.correct) for r in report.records], n_bins=bins, n_classes=report.n_classes
    )
    hist_text = analytics.entropy_histogram_csv(hist, echo)
    out = _out_dir(out)
    for kind, text in (("uncertainty_kde", kde_text), ("entropy_hist", hist_text)):
        if text is not None:
            path = out / f"{stem}_{kind}.csv"
            _write_text(path, text)
            print(f"wrote {path}")


def _write_comparison(rows: list[analytics.ComparisonRow], out, echo: dict) -> None:
    text = analytics.comparison_csv(rows, echo)
    out = _out_dir(out)
    _write_text(out / "comparison.csv", text)
    data.write_json(out / "comparison.json", {"schema_version": 1, "config": echo, "rows": [asdict(r) for r in rows]})
    print(f"wrote {len(rows)} datasets to {out / 'comparison.csv'} and comparison.json")


def cmd_analyze(args) -> int:
    report = _read_report(args.report)
    _write_figures(report, args.out, {"report": Path(args.report).name, "bins": args.bins}, args.bins)
    return 0


def cmd_compare(args) -> int:
    bayes = [_read_report(p) for p in args.bayes]
    baseline = [_read_report(p) for p in args.baseline]
    names = args.names if args.names else [r.dataset_name for r in bayes]
    _write_comparison(analytics.compare_report(bayes, baseline, names), args.out, {"datasets": ";".join(names)})
    return 0


_STUDY_MEANS = [(-2.0, 0.0), (2.0, 0.0)]


def _run_seed(seed: int, shift: data.ShiftConfig, epochs: int, n: int) -> list[dict]:
    """Both heads trained on one seed's two-blob task; for each, in-dist, shifted and ood -> report."""
    train = data.synth_blobs(200, _STUDY_MEANS, 1.0, seed=1000 + seed, name="train")
    test = data.synth_blobs(100, _STUDY_MEANS, 1.0, seed=2000 + seed, name="in-dist")
    shifted = data.synth_shift(test, shift, seed=3000 + seed)
    shifted.name = "shifted"
    ood = data.synth_blobs(100, [(0.0, 6.0), (0.0, 6.0)], 1.0, seed=4000 + seed, name="ood")
    config = TrainConfig(seed=seed, epochs=epochs)
    heads = [training.train_bayes(train, test, config)[0], training.train_baseline(train, test, config)[0]]
    stream = RngStream(seed).derive(_PREDICT_STREAM_KEY)
    return [{d.name: analytics.evaluate(head, d, n, ReferralThresholds(), stream) for d in (test, shifted, ood)}
            for head in heads]


def cmd_study(args) -> int:
    if args.seeds < 1 or args.n < 1:
        raise ValueError(f"--seeds and --n must be >= 1, got {args.seeds} and {args.n}")
    shift = data.ShiftConfig(noise_sigma=args.noise)  # rejects a negative or non-finite --noise
    runs = [_run_seed(seed, shift, args.epochs, args.n) for seed in range(args.seeds)]

    names, bayes_all, base_all = [], [], []
    for seed, (bayes, base) in enumerate(runs):
        names += [f"seed{seed}/{regime}" for regime in bayes]
        bayes_all += bayes.values()
        base_all += base.values()
        print(f"seed {seed}: " + "  ".join(f"{k} {bayes[k].accuracy:.3f}/{base[k].accuracy:.3f}" for k in bayes)
              + "  (bayes/baseline)")
    rows = analytics.compare_report(bayes_all, base_all, names)
    echo = {"seeds": args.seeds, "noise": args.noise, "epochs": args.epochs, "mc_samples": args.n}
    print(f"figures: the bayesian head of seed 0 (of {args.seeds} seeds)")
    for report in runs[0][0].values():
        _write_figures(report, args.out, echo, _HIST_BINS)
    _write_comparison(rows, args.out, echo)
    return 0


def _parse_vector(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse vector {text!r}; expected comma-separated numbers") from None


def _parse_means(text: str) -> list[tuple[float, ...]]:
    return [_parse_vector(chunk) for chunk in text.split(";") if chunk.strip()]


def cmd_synth(args) -> int:
    _plain_name(args.name)  # the file stem of both outputs
    seed = _settings(args, {"seed": TrainConfig.seed})["seed"]
    means = _parse_means(args.means)
    dataset = data.synth_blobs(args.n_per_class, means, args.sigma, seed, name=args.name)

    shift_used = None
    if args.shift_noise or args.shift_angle or args.shift_offset:
        shift_used = data.ShiftConfig(
            noise_sigma=args.shift_noise or 0.0,
            rotation_angle=args.shift_angle or 0.0,
            ood_offset=_parse_vector(args.shift_offset) if args.shift_offset else None,
        )
        dataset = data.synth_shift(dataset, shift_used, seed)
        dataset.name = args.name  # keep the requested file stem

    out = _out_dir(args.out)
    csv_path = out / f"{args.name}.csv"
    data.save_csv(dataset, csv_path)
    meta = {
        "schema_version": 1,
        "schema": {"id_column": "id", "label_column": "label",
                   "feature_columns": [f"f{i}" for i in range(dataset.feature_dim)]},
        "config": {
            "seed": seed,
            "n_per_class": args.n_per_class,
            "means": args.means,
            "sigma": args.sigma,
            "shift_noise": None if shift_used is None else shift_used.noise_sigma,
            "shift_angle": None if shift_used is None else shift_used.rotation_angle,
            "shift_offset": args.shift_offset,
        },
    }
    data.write_json(out / f"{args.name}.meta.json", meta)
    print(f"synth: wrote {len(dataset)} rows to {csv_path}")
    return 0


@cache  # built once; run dispatches by name, so a patched cmd_* is still reached
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="out", help="output directory (default: out)")
    configured = argparse.ArgumentParser(add_help=False, parents=[common])
    configured.add_argument("--seed", type=int, default=None, help="RNG seed (overrides config file)")
    configured.add_argument("--config", default=None, help="flat key = value config file")
    predicting = argparse.ArgumentParser(add_help=False, parents=[configured])
    predicting.add_argument("--model", required=True)
    predicting.add_argument("--data", required=True)
    predicting.add_argument("--n", dest="mc_samples_predict", type=int, default=None,
                            help=f"MC draws (default {MC_SAMPLES})")
    predicting.add_argument("--workers", type=int, default=1, help="accepted for compatibility; has no "
                            "effect, results are deterministic by construction")
    predicting.add_argument("--uncertainty-threshold", type=float, default=None)
    predicting.add_argument("--confidence-threshold", type=float, default=None)
    predicting.add_argument("--ci-level", type=float, default=None)

    # no prefix matching: a flag is spelt in full, as a config file key must be, and --seed is not --seeds
    parser = argparse.ArgumentParser(
        prog="bayeshead",
        description="Bayesian variational classification head with uncertainty-aware referral",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_command = partial(sub.add_parser, allow_abbrev=False)

    p = add_command("train", parents=[configured], help="train a head and save the best checkpoint")
    p.add_argument("--data", required=True, help="training dataset CSV")
    p.add_argument("--val", default=None, help="validation CSV (default: the training set)")
    p.add_argument("--baseline", action="store_true", help="train the deterministic head")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--hidden-dim", type=int, default=None)

    add_command("predict", parents=[predicting], help="per-row prediction records")

    p = add_command("eval", parents=[predicting], help="dataset-level evaluation report")
    p.add_argument("--dataset-name", default=None)

    p = add_command("analyze", parents=[common], help="KDE and entropy histograms from a report")
    p.add_argument("--report", required=True, help="report.json from eval")
    p.add_argument("--bins", type=int, default=_HIST_BINS)

    p = add_command("compare", parents=[common], help="bayesian-vs-baseline comparison table")
    p.add_argument("--bayes", nargs="+", required=True, help="bayesian report.json files")
    p.add_argument("--baseline", nargs="+", required=True, help="baseline report.json files")
    p.add_argument("--names", nargs="+", default=None)

    p = add_command("synth", parents=[configured], help="generate a synthetic dataset CSV")
    p.add_argument("--n-per-class", type=int, required=True)
    p.add_argument("--means", required=True, help='per-class means, e.g. "-2,0;2,0"')
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--name", default="blobs")
    p.add_argument("--shift-noise", type=float, default=None)
    p.add_argument("--shift-angle", type=float, default=None)
    p.add_argument("--shift-offset", default=None, help='offset vector, e.g. "0,6"')

    p = add_command("study", parents=[common], help="both heads over seeds on in-dist, shifted and ood sets")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--noise", type=float, default=1.5, help="noise sigma of the shifted set")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--n", type=int, default=MC_SAMPLES, help="MC draws per evaluation")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as e:  # sizes no machine can hold are an input error too
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

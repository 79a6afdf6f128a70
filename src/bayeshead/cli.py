"""Command-line pipeline: synth -> train -> predict/eval -> analyze -> compare.

Every command is deterministic given (--seed, config, inputs): reruns
produce byte-identical artifacts.  Exit codes: 0 success, 1 numeric or
training failure, 2 usage or input error.
Config precedence is flag > config file > built-in default, and the
effective configuration is echoed into every artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import analytics, data, model_io, training
from .errors import NumericError
from .inference import ReferralThresholds
from .rng import RngStream
from .training import TrainConfig

_PREDICT_STREAM_KEY = 4

_DEFAULT_N = 50
_DEFAULT_UNCERTAINTY = 0.01
_DEFAULT_CONFIDENCE = 0.99
_DEFAULT_CI_LEVEL = 0.95
_WORKERS_HELP = "accepted for compatibility; has no effect, results are deterministic by construction"


def parse_config_file(path) -> dict:
    """Flat ``key = value`` file; '#' comments and blank lines ignored."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    out: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _load_file_config(args) -> dict:
    return parse_config_file(args.config) if getattr(args, "config", None) else {}


def _resolve(flag_value, file_config: dict, key: str, default, cast):
    if flag_value is not None:
        return flag_value
    if key in file_config:
        return cast(file_config[key])
    return default


def _train_config(args, file_config: dict) -> TrainConfig:
    known = TrainConfig().to_flat_dict()
    overrides = {k: v for k, v in file_config.items() if k in known}
    config = TrainConfig.from_flat_dict(overrides)
    flags = {
        "seed": args.seed,
        "epochs": args.epochs,
        "learning_rate": args.learning_rate,
        "batch_size": args.batch_size,
        "hidden_dim": args.hidden_dim,
    }
    flat = config.to_flat_dict()
    flat.update({k: v for k, v in flags.items() if v is not None})
    return TrainConfig.from_flat_dict(flat)


def _thresholds(args, file_config: dict) -> ReferralThresholds:
    return ReferralThresholds(
        uncertainty=_resolve(
            args.uncertainty_threshold, file_config, "uncertainty_threshold",
            _DEFAULT_UNCERTAINTY, float,
        ),
        confidence=_resolve(
            args.confidence_threshold, file_config, "confidence_threshold",
            _DEFAULT_CONFIDENCE, float,
        ),
    )


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_text(path: Path, text: str) -> None:
    with data.atomic_write(path) as fh:
        fh.write(text)


def _write_json(path: Path, doc: dict) -> None:
    _write_text(path, json.dumps(doc, indent=2) + "\n")


def cmd_train(args) -> int:
    file_config = _load_file_config(args)
    config = _train_config(args, file_config)
    train_set = data.load_csv(args.data)
    val_set = data.load_csv(args.val) if args.val else train_set

    if args.baseline:
        model, history = training.train_baseline(train_set, val_set, config)
    else:
        model, history = training.train_bayes(train_set, val_set, config)

    out = _out_dir(args)
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


def _prediction_settings(args, file_config: dict):
    """Draw count, thresholds, CI level and stream shared by predict and eval,
    plus the echo of the settings that fix their output."""
    n = _resolve(args.n, file_config, "mc_samples_predict", _DEFAULT_N, int)
    seed = _resolve(args.seed, file_config, "seed", 0, int)
    thresholds = _thresholds(args, file_config)
    ci_level = _resolve(args.ci_level, file_config, "ci_level", _DEFAULT_CI_LEVEL, float)
    echo = {
        "seed": seed,
        "mc_samples": n,
        "uncertainty_threshold": thresholds.uncertainty,
        "confidence_threshold": thresholds.confidence,
        "ci_level": ci_level,
    }
    return n, thresholds, ci_level, RngStream(seed).derive(_PREDICT_STREAM_KEY), echo


def cmd_predict(args) -> int:
    file_config = _load_file_config(args)
    archive = model_io.load_model(args.model)
    dataset = data.load_csv(args.data)
    n, thresholds, ci_level, stream, echo = _prediction_settings(args, file_config)
    records = analytics.predict_records(archive.model, dataset, n, thresholds, stream, ci_level)

    path = _out_dir(args) / "predictions.jsonl"
    lines = [json.dumps({"record_type": "header", "schema_version": 1, **echo})]
    lines.extend(json.dumps(r.to_dict()) for r in records)
    _write_text(path, "\n".join(lines) + "\n")
    print(f"predict: n={n} rows={len(dataset)} out={path}")
    return 0


def cmd_eval(args) -> int:
    file_config = _load_file_config(args)
    archive = model_io.load_model(args.model)
    dataset = data.load_csv(args.data, name=args.dataset_name) if args.dataset_name \
        else data.load_csv(args.data)
    n, thresholds, ci_level, stream, echo = _prediction_settings(args, file_config)
    report = analytics.evaluate(archive.model, dataset, n, thresholds, stream, ci_level=ci_level)
    echo["variant"] = archive.model.variant
    path = _out_dir(args) / "report.json"
    _write_json(path, report.to_dict(config=echo))
    print(
        f"eval: dataset={report.dataset_name} accuracy={report.accuracy:.4f} "
        f"referral_rate={report.referral_rate:.4f} out={path}"
    )
    return 0


def cmd_analyze(args) -> int:
    doc = json.loads(Path(args.report).read_text(encoding="utf-8"))
    report = analytics.EvalReport.from_dict(doc)
    out = _out_dir(args)
    echo = {"report": Path(args.report).name, "bins": args.bins}

    stem = report.dataset_name
    uncertainties = [r.uncertainty for r in report.records]
    kde_path = out / f"{stem}_uncertainty_kde.csv"
    try:
        curve = analytics.kde(uncertainties, bandwidth=args.kde_bandwidth,
                              grid_points=args.kde_grid_points)
    except ValueError as e:
        print(f"analyze: skipping KDE ({e})", file=sys.stderr)
    else:
        _write_text(kde_path, analytics.kde_csv(curve, echo))
        print(f"analyze: wrote {kde_path}")

    hist = analytics.entropy_histogram(
        [(r.entropy_bits, r.correct) for r in report.records],
        n_bins=args.bins,
        n_classes=report.n_classes,
    )
    hist_path = out / f"{stem}_entropy_hist.csv"
    _write_text(hist_path, analytics.entropy_histogram_csv(hist, echo))
    print(f"analyze: wrote {hist_path}")
    return 0


def cmd_compare(args) -> int:
    bayes = [analytics.EvalReport.from_dict(json.loads(Path(p).read_text(encoding="utf-8")))
             for p in args.bayes]
    baseline = [analytics.EvalReport.from_dict(json.loads(Path(p).read_text(encoding="utf-8")))
                for p in args.baseline]
    names = args.names if args.names else [r.dataset_name for r in bayes]
    rows = analytics.compare_report(bayes, baseline, names)

    out = _out_dir(args)
    echo = {"datasets": ";".join(names)}
    _write_text(out / "comparison.csv", analytics.comparison_csv(rows, echo))
    _write_json(
        out / "comparison.json",
        {
            "schema_version": 1,
            "config": echo,
            "rows": [asdict(r) for r in rows],
        },
    )
    print(f"compare: {len(rows)} datasets -> {out / 'comparison.csv'}")
    return 0


def _parse_vector(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse vector {text!r}; expected comma-separated numbers") from None


def _parse_means(text: str) -> list[tuple[float, ...]]:
    return [_parse_vector(chunk) for chunk in text.split(";") if chunk.strip()]


def cmd_synth(args) -> int:
    file_config = _load_file_config(args)
    seed = _resolve(args.seed, file_config, "seed", 0, int)
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

    out = _out_dir(args)
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
    _write_json(out / f"{args.name}.meta.json", meta)
    print(f"synth: wrote {len(dataset)} rows to {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="RNG seed (overrides config file)")
    common.add_argument("--config", default=None, help="flat key = value config file")
    common.add_argument("--out", default="out", help="output directory (default: out)")

    parser = argparse.ArgumentParser(
        prog="bayeshead",
        description="Bayesian variational classification head with uncertainty-aware referral",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[common], help="train a head and save the best checkpoint")
    p.add_argument("--data", required=True, help="training dataset CSV")
    p.add_argument("--val", default=None, help="validation CSV (default: the training set)")
    p.add_argument("--baseline", action="store_true", help="train the deterministic head")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--hidden-dim", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", parents=[common], help="per-row prediction records")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--n", type=int, default=None, help="MC draws (default 50)")
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p.add_argument("--uncertainty-threshold", type=float, default=None)
    p.add_argument("--confidence-threshold", type=float, default=None)
    p.add_argument("--ci-level", type=float, default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", parents=[common], help="dataset-level evaluation report")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--dataset-name", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p.add_argument("--uncertainty-threshold", type=float, default=None)
    p.add_argument("--confidence-threshold", type=float, default=None)
    p.add_argument("--ci-level", type=float, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", parents=[common], help="KDE and entropy histograms from a report")
    p.add_argument("--report", required=True, help="report.json from eval")
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--kde-bandwidth", type=float, default=None)
    p.add_argument("--kde-grid-points", type=int, default=401)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", parents=[common], help="bayesian-vs-baseline comparison table")
    p.add_argument("--bayes", nargs="+", required=True, help="bayesian report.json files")
    p.add_argument("--baseline", nargs="+", required=True, help="baseline report.json files")
    p.add_argument("--names", nargs="+", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic dataset CSV")
    p.add_argument("--n-per-class", type=int, required=True)
    p.add_argument("--means", required=True, help='per-class means, e.g. "-2,0;2,0"')
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--name", default="blobs")
    p.add_argument("--shift-noise", type=float, default=None)
    p.add_argument("--shift-angle", type=float, default=None)
    p.add_argument("--shift-offset", default=None, help='offset vector, e.g. "0,6"')
    p.set_defaults(func=cmd_synth)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())

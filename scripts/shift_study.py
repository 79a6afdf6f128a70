#!/usr/bin/env python3
"""Distribution-shift study: bayesian head vs deterministic baseline.

Trains both heads on a two-blob task over several seeds, then evaluates
on an in-distribution test set, a noise-shifted copy, and an off-manifold
cluster.  Writes a per-seed comparison table plus, for the first seed,
uncertainty-KDE and entropy-histogram CSVs for each evaluation regime.

Usage:
    python scripts/shift_study.py --out results [--seeds 5] [--noise 1.5]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bayeshead import (  # noqa: E402
    ReferralThresholds,
    RngStream,
    ShiftConfig,
    TrainConfig,
    compare_report,
    entropy_histogram,
    evaluate,
    kde,
    synth_blobs,
    synth_shift,
    train_baseline,
    train_bayes,
)
from bayeshead.analytics import comparison_csv, entropy_histogram_csv, kde_csv  # noqa: E402
from bayeshead.data import atomic_write  # noqa: E402

MEANS = [(-2.0, 0.0), (2.0, 0.0)]


def run_seed(seed: int, noise: float, epochs: int, mc_samples: int):
    train = synth_blobs(200, MEANS, 1.0, seed=1000 + seed, name="train")
    test = synth_blobs(100, MEANS, 1.0, seed=2000 + seed, name="in-dist")
    shifted = synth_shift(test, ShiftConfig(noise_sigma=noise), seed=3000 + seed)
    ood = synth_blobs(100, [(0.0, 6.0), (0.0, 6.0)], 1.0, seed=4000 + seed, name="ood")

    config = TrainConfig(seed=seed, epochs=epochs)
    bayes, _ = train_bayes(train, test, config)
    baseline, _ = train_baseline(train, test, config)

    thresholds = ReferralThresholds()
    stream = RngStream(seed).derive(4)
    regimes = {"in-dist": test, "shifted": shifted, "ood": ood}
    bayes_reports = {k: evaluate(bayes, d, mc_samples, thresholds, stream) for k, d in regimes.items()}
    base_reports = {k: evaluate(baseline, d, mc_samples, thresholds, stream) for k, d in regimes.items()}
    return bayes_reports, base_reports


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--noise", type=float, default=1.5)
    parser.add_argument("--epochs", type=int, default=150)
    parser.add_argument("--mc-samples", type=int, default=50)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    echo = {"seeds": args.seeds, "noise": args.noise, "epochs": args.epochs,
            "mc_samples": args.mc_samples}

    names, bayes_all, base_all = [], [], []
    shift_wins = 0
    for seed in range(args.seeds):
        bayes_reports, base_reports = run_seed(seed, args.noise, args.epochs, args.mc_samples)
        for regime in ("in-dist", "shifted", "ood"):
            names.append(f"seed{seed}/{regime}")
            bayes_all.append(bayes_reports[regime])
            base_all.append(base_reports[regime])
        shift_wins += bayes_reports["shifted"].accuracy >= base_reports["shifted"].accuracy
        print(
            f"seed {seed}: in-dist {bayes_reports['in-dist'].accuracy:.3f}/"
            f"{base_reports['in-dist'].accuracy:.3f}  shifted "
            f"{bayes_reports['shifted'].accuracy:.3f}/{base_reports['shifted'].accuracy:.3f}  "
            f"(bayes/baseline)"
        )

        if seed == 0:
            for regime, report in bayes_reports.items():
                uncertainties = [r.uncertainty for r in report.records]
                if float(np.std(uncertainties, ddof=1)) > 0:
                    curve = kde(uncertainties)
                    with atomic_write(out / f"{regime}_uncertainty_kde.csv") as fh:
                        fh.write(kde_csv(curve, echo))
                hist = entropy_histogram(
                    [(r.entropy_bits, r.correct) for r in report.records], n_bins=20
                )
                with atomic_write(out / f"{regime}_entropy_hist.csv") as fh:
                    fh.write(entropy_histogram_csv(hist, echo))

    rows = compare_report(bayes_all, base_all, names)
    with atomic_write(out / "comparison.csv") as fh:
        fh.write(comparison_csv(rows, echo))
    print(f"bayesian matched or beat baseline on the shifted set in {shift_wins}/{args.seeds} seeds")
    print(f"wrote {out / 'comparison.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

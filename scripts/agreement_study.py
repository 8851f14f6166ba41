#!/usr/bin/env python3
"""Approximation-versus-simulation agreement study.

For random barrier configurations (pair count from a fixed menu, means
uniform on [1, 5], variances uniform on [0.16, 3.84]) this compares the
closed-form barrier distribution against Monte-Carlo simulation: linear
regression of simulated on approximated moments plus the Jensen-Shannon
divergence between the sampled histogram and the Gaussian approximation.

The acceptance suite runs the same protocol at tau=1e5; this script exists to
rerun it at other scales (tau=1e7 reproduces the published setup, budget a few
hours) and to dump the per-configuration table for plotting.
"""

import argparse
import sys
import time

import numpy as np

import magicbarrier as mb
from magicbarrier.analysis import DiscreteDensity, jsd

PAIR_COUNTS = (50, 100, 150, 200, 500, 1000)


def linregress(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    r2 = 1.0 - float(np.sum(resid**2)) / float(np.sum((y - y.mean()) ** 2))
    return float(slope), float(intercept), r2


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--configs-per-count", type=int, default=10)
    ap.add_argument("--tau", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--out", default=None, help="per-configuration CSV")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    rows = []
    start = time.perf_counter()
    for rep in range(args.configs_per_count):
        for n in PAIR_COUNTS:
            mus = rng.uniform(1.0, 5.0, n)
            variances = rng.uniform(0.16, 3.84, n)
            dists = mb.PairTable([(f"u{k}", "i") for k in range(n)], mus, variances)
            approx = mb.magic_barrier_rmse(variances)
            cfg = mb.MCConfig(trials=args.tau, master_seed=rep * 100 + n)
            optimal = mb.optimal_predictors(dists, mb.MetricKind.RMSE)
            sample = mb.simulate_metric(
                dists, optimal, mb.MetricKind.RMSE, cfg, workers=args.workers
            )
            divergence = jsd(
                DiscreteDensity.from_metric_sample(sample),
                DiscreteDensity.from_gaussian(approx, sample.bin_edges),
            )
            rows.append(
                (
                    n,
                    approx.mean,
                    approx.variance,
                    sample.summary.mean,
                    sample.summary.variance,
                    divergence,
                )
            )
            print(
                f"n={n:5d} approx=({approx.mean:.5f}, {approx.variance:.3e}) "
                f"sim=({sample.summary.mean:.5f}, {sample.summary.variance:.3e}) "
                f"jsd={divergence:.4f}",
                file=sys.stderr,
            )
    elapsed = time.perf_counter() - start

    arr = np.asarray(rows)
    se, ie, r2e = linregress(arr[:, 1], arr[:, 3])
    sv, iv, r2v = linregress(arr[:, 2], arr[:, 4])
    print(f"{len(rows)} configurations, tau={args.tau}, {elapsed:.1f}s")
    print(f"expectations: sim = {se:.4f} * apr + {ie:+.4f}   (R2 = {r2e:.4f})")
    print(f"variances:    sim = {sv:.4f} * apr + {iv:+.6f}   (R2 = {r2v:.4f})")
    print(f"JSD: median {np.median(arr[:, 5]):.4f}, max {arr[:, 5].max():.4f}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(f"# tau={args.tau} seed={args.seed}\n")
            fh.write("n,approx_mean,approx_variance,sim_mean,sim_variance,jsd\n")
            for row in rows:
                fh.write(",".join(repr(v) for v in row) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Approximation-versus-simulation agreement study.

For random barrier configurations (pair count from a fixed menu, means
uniform on [1, 5], variances uniform on [0.16, 3.84]) this compares the
closed-form barrier distribution against Monte-Carlo simulation: linear
regression of simulated on approximated moments plus the Jensen-Shannon
divergence between the sampled histogram and the Gaussian approximation.

The acceptance suite loads this file and runs the same protocol
(``run_study``) at tau=1e5; as a script it reruns the protocol at other
scales (tau=1e7 reproduces the published setup, budget a few hours) and dumps
the per-configuration table for plotting.
"""

import argparse
import sys
import time

import numpy as np

import magicbarrier as mb
from magicbarrier.analysis import DiscreteDensity, jsd

PAIR_COUNTS = (50, 100, 150, 200, 500, 1000)
# one study row per configuration
COLUMNS = ("n", "approx_mean", "approx_variance", "sim_mean", "sim_variance", "jsd")


def run_study(configs_per_count, tau, seed, workers):
    """Yield one row (as COLUMNS) per configuration, ``configs_per_count``
    rounds over PAIR_COUNTS; configuration (rep, n) simulates with master
    seed ``rep * 100 + n``."""
    rng = np.random.default_rng(seed)
    for rep in range(configs_per_count):
        for n in PAIR_COUNTS:
            mus = rng.uniform(1.0, 5.0, n)
            variances = rng.uniform(0.16, 3.84, n)
            dists = mb.PairTable([(f"u{k}", "i") for k in range(n)], mus, variances)
            approx = mb.magic_barrier_rmse(variances)
            cfg = mb.MCConfig(trials=tau, master_seed=rep * 100 + n)
            optimal = mb.optimal_predictors(dists, mb.MetricKind.RMSE)
            sample = mb.simulate_metric(dists, optimal, mb.MetricKind.RMSE, cfg, workers=workers)
            divergence = jsd(
                DiscreteDensity.from_histogram(sample.bin_edges, sample.bin_heights),
                DiscreteDensity.from_gaussian(approx, sample.bin_edges),
            )
            yield (
                n,
                approx.mean,
                approx.variance,
                sample.summary.mean,
                sample.summary.variance,
                divergence,
            )


def linregress(x, y):
    """Least-squares slope, intercept and R^2 of ``y`` on ``x``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
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

    rows = []
    start = time.perf_counter()
    for row in run_study(args.configs_per_count, args.tau, args.seed, args.workers):
        n, approx_mean, approx_variance, sim_mean, sim_variance, divergence = row
        print(
            f"n={n:5d} approx=({approx_mean:.5f}, {approx_variance:.3e}) "
            f"sim=({sim_mean:.5f}, {sim_variance:.3e}) jsd={divergence:.4f}",
            file=sys.stderr,
        )
        rows.append(row)
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
            fh.write(",".join(COLUMNS) + "\n")
            for row in rows:
                fh.write(",".join(repr(v) for v in row) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

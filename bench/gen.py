#!/usr/bin/env python3
"""Seeded input generator for the benchmark workloads.

Runs in its own process, so neither its time nor its memory lands on the
process that runs a workload. Uses numpy only: nothing here imports the
package under test, so the oracle arrays it writes next to the inputs are
independent of the code they check.

    python3 bench/gen.py --workload barrier-mc --seed 7 --out DIR [--size tiny]

Writes the workload's input files into DIR plus ``oracle.npz``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

SCALE = (1, 5)
VARIANCE_RATE = 2.11  # Exp(rate) law of latent rating variances

# Fixed sizes per workload; "tiny" is the self-test size.
SIZES = {
    "ingest-estimate": {
        "full": {"users": 4000, "items": 5, "trials": 5},
        "tiny": {"users": 40, "items": 5, "trials": 5},
    },
    "barrier-mc": {
        "full": {"pairs": 5001, "tau": 8192, "workers": 1},
        "tiny": {"pairs": 1000, "tau": 4096, "workers": 1},
    },
    "rank-shared": {
        "full": {"pairs": 500, "tau": 200_000, "workers": 2},
        "tiny": {"pairs": 100, "tau": 20_000, "workers": 2},
    },
}

# rank-shared systems: the optimal predictor plus alternating offsets
RANK_SYSTEMS = {"optimal": 0.0, "off005": 0.05, "off010": 0.10, "off015": 0.15}


def _latent_pairs(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = SCALE
    means = rng.uniform(lo + 0.5, hi - 0.5, n)
    # a draw of exactly 0.0 would be a vanishing pair; keep every pair usable
    variances = np.maximum(rng.exponential(1.0 / VARIANCE_RATE, n), 1e-9)
    return means, variances


def _write_pairs(path: Path, means: np.ndarray, variances: np.ndarray) -> None:
    lo, hi = SCALE
    doc = {
        "scale": {"min_category": lo, "max_category": hi, "num_trials": 5},
        "pairs": [
            {"user": f"u{k}", "item": f"i{k % 5}", "mean": m, "variance": v}
            for k, (m, v) in enumerate(zip(means.tolist(), variances.tolist()))
        ],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def gen_ingest(rng: np.random.Generator, out: Path, users: int, items: int, trials: int) -> None:
    lo, hi = SCALE
    means, variances = _latent_pairs(rng, users * items)
    noise = rng.standard_normal((users * items, trials))
    ratings = np.clip(np.rint(means[:, None] + np.sqrt(variances)[:, None] * noise), lo, hi)
    ratings = ratings.astype(np.int64)
    lines = ["user,item,trial,rating"]
    for code, row in enumerate(ratings.tolist()):
        user, item = divmod(code, items)
        lines.extend(f"u{user},i{item},{t},{r}" for t, r in enumerate(row, start=1))
    (out / "tensor.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    # group-by of the flat records on an integer (user, item) code
    codes = np.repeat(np.arange(users * items), trials)
    flat = ratings.reshape(-1).astype(np.float64)
    counts = np.bincount(codes)
    mean = np.bincount(codes, weights=flat) / counts
    dev = flat - mean[codes]
    var = np.bincount(codes, weights=dev * dev) / counts
    np.savez(out / "oracle.npz", items=items, means=mean, variances=var)


def gen_pairs(rng: np.random.Generator, out: Path, pairs: int, systems: dict | None) -> None:
    means, variances = _latent_pairs(rng, pairs)
    _write_pairs(out / "pairs.json", means, variances)
    if systems is None:
        np.savez(out / "oracle.npz", variances=variances)
        return
    signs = np.where(np.arange(pairs) % 2 == 0, 1.0, -1.0)
    preds = []
    for label, level in systems.items():
        pred = means + level * signs
        lines = ["user,item,prediction"]
        lines.extend(f"u{k},i{k % 5},{p!r}" for k, p in enumerate(pred.tolist()))
        (out / f"{label}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        preds.append(pred)
    np.savez(
        out / "oracle.npz",
        labels=np.array(list(systems)),
        means=means,
        variances=variances,
        predictions=np.array(preds),
    )


def generate(workload: str, seed: int, out: Path, size: str = "full") -> None:
    out.mkdir(parents=True, exist_ok=True)
    params = SIZES[workload][size]
    rng = np.random.default_rng([seed, list(SIZES).index(workload)])
    if workload == "ingest-estimate":
        gen_ingest(rng, out, params["users"], params["items"], params["trials"])
    elif workload == "barrier-mc":
        gen_pairs(rng, out, params["pairs"], None)
    else:
        gen_pairs(rng, out, params["pairs"], RANK_SYSTEMS)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(SIZES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    args = ap.parse_args()
    generate(args.workload, args.seed, Path(args.out), args.size)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

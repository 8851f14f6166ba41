#!/usr/bin/env python3
"""Generate a synthetic re-rating tensor CSV.

Draws one latent Gaussian per user-item pair (mean uniform on the inner
scale, variance exponential) and rounds per-trial draws onto the integer
scale. Useful for exercising the ingest/estimate/simulate pipeline without a
real study export.
"""

import argparse
import math
import sys

import numpy as np


def synthetic_tensor(
    users=67, items=5, trials=5, scale_min=1, scale_max=5, rate=2.11, seed=0
) -> str:
    """Tensor CSV text of ``users`` x ``items`` pairs rated ``trials`` times."""
    rng = np.random.default_rng(seed)
    lines = ["user,item,trial,rating"]
    for u in range(users):
        for i in range(items):
            mu = rng.uniform(scale_min + 0.5, scale_max - 0.5)
            sigma = np.sqrt(rng.exponential(1.0 / rate))
            # rint rounds half to even, as round does
            draws = np.rint(rng.normal(mu, sigma, trials))
            ratings = np.clip(draws, scale_min, scale_max).astype(int)
            lines.extend(f"u{u},i{i},{t},{r}" for t, r in enumerate(ratings.tolist(), 1))
    return "\n".join(lines) + "\n"


def _checked(kind, ok, rule):
    """An argparse type: ``kind(text)``, refused unless ``ok`` holds for it."""

    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    # argparse names the type in its "invalid int value" message
    parse.__name__ = kind.__name__
    return parse


def main() -> int:
    count = _checked(int, lambda v: v >= 1, ">= 1")
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--users", type=count, default=67)
    ap.add_argument("--items", type=count, default=5)
    ap.add_argument("--trials", type=count, default=5)
    ap.add_argument("--scale-min", type=int, default=1)
    ap.add_argument("--scale-max", type=int, default=5)
    ap.add_argument(
        "--rate", type=_checked(float, lambda v: math.isfinite(v) and v > 0, "finite and > 0"),
        default=2.11, help="exponential rate of latent variances",
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="output path (default stdout)")
    args = ap.parse_args()
    if args.scale_min >= args.scale_max:
        ap.error(f"--scale-min {args.scale_min} must be below --scale-max {args.scale_max}")

    text = synthetic_tensor(
        args.users, args.items, args.trials, args.scale_min, args.scale_max, args.rate, args.seed
    )
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        records = text.count("\n") - 1
        print(f"wrote {records} records to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The three benchmark workloads: the CLI calls of one iteration, the work
units it performs, an oracle check of its outputs, and a deliberate
corruption used by the self-test to prove the check bites.

Every oracle here uses numpy and the standard library only, on arrays the
generator wrote (``oracle.npz``); none of it calls the package under test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import numpy as np

from gen import SIZES, RANK_SYSTEMS


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what one work unit of throughput_per_s is
    calls: Callable[[Path, dict, int], list[list[str]]]
    units: Callable[[dict], int]  # work units per iteration
    outputs: tuple[str, ...]  # files one iteration writes
    check: Callable[[Path, dict], list[str]]  # returns failure messages
    corrupt: Callable[[Path], None]


# ---------------------------------------------------------------------------
# ingest-estimate: the re-rating-study path (ingest, then closed form)


def _ingest_calls(d: Path, p: dict, seed: int) -> list[list[str]]:
    return [
        ["ingest", str(d / "tensor.csv"), "--scale-min", "1", "--scale-max", "5",
         "--trials", str(p["trials"]), "--out", str(d / "pairs_out.json")],
        ["estimate", str(d / "pairs_out.json"), "--out", str(d / "estimate.json")],
    ]


def _ingest_check(d: Path, p: dict) -> list[str]:
    oracle = np.load(d / "oracle.npz")
    items = int(oracle["items"])
    pairs = _load(d / "pairs_out.json")["pairs"]
    errors = []
    if len(pairs) != oracle["means"].size:
        return [f"ingest: {len(pairs)} pairs, expected {oracle['means'].size}"]
    codes = np.array([int(q["user"][1:]) * items + int(q["item"][1:]) for q in pairs])
    means = np.array([q["mean"] for q in pairs])
    variances = np.array([q["variance"] for q in pairs])
    if np.unique(codes).size != codes.size:
        errors.append("ingest: duplicate pair keys")
    for field, got in (("mean", means), ("variance", variances)):
        worst = float(np.max(np.abs(got - oracle[field + "s"][codes])))
        if not worst <= 1e-12:
            errors.append(f"ingest: pair {field} off by {worst:.3g} (> 1e-12)")
    v = oracle["variances"]
    v = v[v > 0.0]
    est = _load(d / "estimate.json")
    expected = math.sqrt(float(np.mean(v)))
    if not _rel(est["mean"], expected) <= 1e-12:
        errors.append(f"estimate: mean {est['mean']!r}, oracle {expected!r}")
    expected_var = float(np.sum(v * v)) / (2.0 * v.size * float(np.sum(v)))
    if not _rel(est["variance"], expected_var) <= 1e-12:
        errors.append(f"estimate: variance {est['variance']!r}, oracle {expected_var!r}")
    return errors


def _ingest_corrupt(d: Path) -> None:
    doc = _load(d / "pairs_out.json")
    doc["pairs"][0]["mean"] += 1e-9
    (d / "pairs_out.json").write_text(json.dumps(doc), encoding="utf-8")


# ---------------------------------------------------------------------------
# barrier-mc: the paper's barrier check, closed form against simulation


def _barrier_calls(d: Path, p: dict, seed: int) -> list[list[str]]:
    return [
        ["estimate", str(d / "pairs.json"), "--out", str(d / "estimate.json")],
        ["simulate", str(d / "pairs.json"), "--tau", str(p["tau"]),
         "--workers", str(p["workers"]), "--seed", str(seed), "--out", str(d / "mc.json")],
        ["compare", str(d / "estimate.json"), str(d / "mc.json"), "--out", str(d / "compare.json")],
    ]


def _barrier_check(d: Path, p: dict) -> list[str]:
    s2 = np.load(d / "oracle.npz")["variances"]
    n, tau = s2.size, p["tau"]
    ez = float(np.mean(s2))
    vz = 2.0 * float(np.sum(s2 * s2)) / (n * n)
    cf_mean = math.sqrt(ez)
    cf_var = vz / (4.0 * ez)
    biased_mean = cf_mean - vz / (8.0 * ez**1.5)  # second-order Taylor term
    errors = []
    est = _load(d / "estimate.json")
    if not (_rel(est["mean"], cf_mean) <= 1e-12 and _rel(est["variance"], cf_var) <= 1e-12):
        errors.append(f"estimate: ({est['mean']!r}, {est['variance']!r}) != ({cf_mean!r}, {cf_var!r})")
    mc = _load(d / "mc.json")
    se = math.sqrt(mc["variance"] / tau)
    if not abs(mc["mean"] - biased_mean) <= 5.0 * se:
        errors.append(f"simulate: mean {mc['mean']:.6g} is {abs(mc['mean'] - biased_mean) / se:.1f} "
                      f"MC standard errors from {biased_mean:.6g}")
    if not _rel(mc["variance"], cf_var) <= 0.10:
        errors.append(f"simulate: variance {mc['variance']:.4g} vs closed form {cf_var:.4g} (> 10%)")
    heights = np.asarray(mc["histogram"]["heights"])
    if not math.isclose(float(np.sum(heights * np.diff(mc["histogram"]["edges"]))), 1.0, rel_tol=1e-9):
        errors.append("simulate: histogram does not integrate to 1")
    cmp = _load(d / "compare.json")
    p_int = _phi((est["mean"] - mc["mean"]) / math.sqrt(est["variance"] + mc["variance"]))
    if not abs(cmp["interference_probability"] - p_int) <= 1e-12:
        errors.append(f"compare: interference {cmp['interference_probability']!r}, oracle {p_int!r}")
    if not (cmp["jsd"] is not None and 0.0 <= cmp["jsd"] <= 1.0):
        errors.append(f"compare: jsd {cmp['jsd']!r} outside [0, 1]")
    return errors


def _barrier_corrupt(d: Path) -> None:
    doc = _load(d / "mc.json")
    doc["mean"] += 0.01
    (d / "mc.json").write_text(json.dumps(doc), encoding="utf-8")


# ---------------------------------------------------------------------------
# rank-shared: many systems on shared draws


def _rank_calls(d: Path, p: dict, seed: int) -> list[list[str]]:
    return [
        ["rank", str(d / "pairs.json"), "--predictors",
         *(str(d / f"{label}.csv") for label in RANK_SYSTEMS),
         "--tau", str(p["tau"]), "--workers", str(p["workers"]), "--seed", str(seed),
         "--out", str(d / "rank.json")],
    ]


def _rank_check(d: Path, p: dict) -> list[str]:
    oracle = np.load(d / "oracle.npz")
    labels = [str(x) for x in oracle["labels"]]
    s2 = oracle["variances"]
    offsets = oracle["means"][None, :] - oracle["predictions"]
    tau = p["tau"]
    orderings = _load(d / "rank.json")["orderings"]
    errors = []
    total = sum(orderings.values())
    if not abs(total - 1.0) <= 1e-9:
        errors.append(f"rank: masses sum to {total!r}")
    ranked = {}
    for key, mass in orderings.items():
        order = key.split(">")
        if sorted(order) != sorted(labels):
            errors.append(f"rank: ordering {key!r} is not a permutation of {labels}")
            continue
        ranked[tuple(order)] = mass
    for i, j in combinations(range(len(labels)), 2):
        oi, oj = offsets[i], offsets[j]
        # exact under shared draws: RMSE_i^2 - RMSE_j^2 is Gaussian
        z = float(np.sum(oj * oj - oi * oi)) / (2.0 * math.sqrt(float(np.sum(s2 * (oi - oj) ** 2))))
        exact = _phi(z)
        won = sum(m for o, m in ranked.items() if o.index(labels[i]) < o.index(labels[j]))
        se = max(math.sqrt(exact * (1.0 - exact) / tau), 1.0 / tau)
        if not abs(won - exact) <= 5.0 * se:
            errors.append(f"rank: P({labels[i]} before {labels[j]}) = {won:.5f}, "
                          f"exact {exact:.5f} ({abs(won - exact) / se:.1f} SE)")
    return errors


def _rank_corrupt(d: Path) -> None:
    doc = _load(d / "rank.json")
    top = next(iter(doc["orderings"]))
    doc["orderings"][top] *= 0.9
    (d / "rank.json").write_text(json.dumps(doc), encoding="utf-8")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ingest-estimate", "tensor record", _ingest_calls,
                 lambda p: p["users"] * p["items"] * p["trials"],
                 ("pairs_out.json", "estimate.json"), _ingest_check, _ingest_corrupt),
        Workload("barrier-mc", "pair-draw", _barrier_calls,
                 lambda p: p["pairs"] * p["tau"],
                 ("estimate.json", "mc.json", "compare.json"), _barrier_check, _barrier_corrupt),
        Workload("rank-shared", "system-pair-draw", _rank_calls,
                 lambda p: len(RANK_SYSTEMS) * p["pairs"] * p["tau"],
                 ("rank.json",), _rank_check, _rank_corrupt),
    )
}

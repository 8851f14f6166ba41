"""Acceptance suite.

One test per criterion; each prints a single ``ACCEPTANCE <id>: PASS/FAIL``
line (visible with ``pytest -s``) and enforces its stated tolerances.
Criterion 1 needs the original re-rating study export converted to tensor CSV;
point MAGICBARRIER_TENSOR at it (or drop it at data/rerating_tensor.csv) to
enable the test, otherwise it is skipped, not failed.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import magicbarrier as mb
from magicbarrier.analysis import DiscreteDensity, jsd

from conftest import load_file
from oracles import interference_probability_mc, interference_probability_quadrature

TAU = 100_000
STUDY_SEED = 0
CONFIGS_PER_COUNT = 10  # 60 configurations in total
STUDY_PATH = Path(__file__).resolve().parents[1] / "scripts" / "agreement_study.py"

STUDY = load_file(STUDY_PATH)  # the C2/C3 protocol


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: published experimental record (data-gated)


def _experimental_tensor_path():
    env = os.environ.get("MAGICBARRIER_TENSOR")
    if env:
        return Path(env)
    default = Path(__file__).resolve().parent.parent / "data" / "rerating_tensor.csv"
    return default if default.exists() else None


def test_c1_experimental_record():
    path = _experimental_tensor_path()
    if path is None or not path.exists():
        pytest.skip(
            "re-rating study export not available; set MAGICBARRIER_TENSOR to "
            "the converted tensor CSV (user,item,trial,rating) to enable"
        )
    scale = mb.ScaleSpec(1, 5, 5)
    tensor = mb.parse_tensor(path.read_text(encoding="utf-8"), scale)
    dists = mb.fit_pair_gaussians(tensor)
    usable = mb.filter_nonvanishing(dists)
    variances = usable.variances
    rate = mb.fit_exponential(variances)
    barrier = mb.magic_barrier_rmse(variances)

    from magicbarrier.ingest import ks_test_slices, nonzero_variance_fraction_by_item

    _, rejected = ks_test_slices(tensor, dists)

    fractions = nonzero_variance_fraction_by_item(dists)

    ok = (
        len(usable) == 213
        and abs(rate - 2.11) <= 0.02
        and abs(barrier.mean - 0.733) <= 0.005
        and abs(barrier.variance - 0.003) <= 0.0005
        and rejected == 0
        and all(0.5 <= f <= 0.9 for f in fractions.values())
    )
    _verdict(
        "C1",
        ok,
        f"pairs={len(usable)} rate={rate:.3f} barrier=({barrier.mean:.4f}, "
        f"{barrier.variance:.5f}) ks_rejected={rejected}",
    )


# ---------------------------------------------------------------------------
# criteria 2 and 3 share one simulation study


@pytest.fixture(scope="module")
def agreement_study():
    start = time.perf_counter()
    records = [
        dict(zip(STUDY.COLUMNS, row))
        for row in STUDY.run_study(CONFIGS_PER_COUNT, TAU, STUDY_SEED, workers=4)
    ]
    return {"records": records, "elapsed": time.perf_counter() - start}


def test_c2_approximation_simulation_agreement(agreement_study):
    records = agreement_study["records"]
    assert len(records) >= 60
    slope_e, intercept_e, r2_e = STUDY.linregress(
        [r["approx_mean"] for r in records], [r["sim_mean"] for r in records]
    )
    slope_v, intercept_v, r2_v = STUDY.linregress(
        [r["approx_variance"] for r in records], [r["sim_variance"] for r in records]
    )
    ok = (
        0.99 <= slope_e <= 1.01
        and abs(intercept_e) <= 0.01
        and r2_e >= 0.98
        and 0.95 <= slope_v <= 1.03
        and r2_v >= 0.97
    )
    _verdict(
        "C2",
        ok,
        f"{len(records)} configs in {agreement_study['elapsed']:.0f}s; "
        f"E: slope={slope_e:.4f} intercept={intercept_e:.4f} R2={r2_e:.4f}; "
        f"V: slope={slope_v:.4f} R2={r2_v:.4f}",
    )


def test_c3_jsd_goodness(agreement_study):
    records = agreement_study["records"]
    large = [r["jsd"] for r in records if r["n"] >= 200]
    small = [r["jsd"] for r in records if r["n"] == 50]
    ok = len(large) > 0 and max(large) <= 0.10
    _verdict(
        "C3",
        ok,
        f"max JSD at N>=200: {max(large):.4f} over {len(large)} configs "
        f"(N=50 max, not gated: {max(small):.4f})",
    )


# ---------------------------------------------------------------------------
# criterion 4: transfer to a large record without re-rating data


def test_c4_large_scale_transfer():
    variances = mb.sample_variances(2.11, 2_800_000, seed=STUDY_SEED)
    start = time.perf_counter()
    barrier = mb.magic_barrier_rmse(variances)
    elapsed = time.perf_counter() - start

    # reference arithmetic from the published transfer: at variance 7e-4 the
    # simplified threshold is 0.1587, and the winner's 0.8567 clears it
    reference = mb.improvement_criterion(
        mb.GaussianSummary(0.6687, 0.0007), mb.GaussianSummary(0.8567, 0.0007)
    )
    own = mb.improvement_criterion(
        barrier, mb.GaussianSummary(0.8567, barrier.variance)
    )
    ok = (
        0.66 <= barrier.mean <= 0.70
        and abs(float(variances.mean()) * 2.11 - 1.0) <= 0.005
        and abs(6.0 * math.sqrt(7e-4) - 0.1587) <= 0.02
        and abs(reference.simplified_threshold - 0.1587) <= 0.02
        and not reference.simplified_needed
        and not reference.differentiated_analysis_needed
        and not own.differentiated_analysis_needed
        and elapsed <= 1.0
    )
    _verdict(
        "C4",
        ok,
        f"barrier=({barrier.mean:.4f}, {barrier.variance:.2e}) "
        f"threshold={reference.simplified_threshold:.4f} closed-form {elapsed*1e3:.0f}ms",
    )


# ---------------------------------------------------------------------------
# criterion 5: interference oracle equivalence


def test_c5_interference_oracles():
    rng = np.random.default_rng(55)
    worst_quad = 0.0
    for _ in range(100):
        a = mb.GaussianSummary(rng.uniform(0.4, 1.2), rng.uniform(1e-5, 0.02))
        b = mb.GaussianSummary(rng.uniform(0.4, 1.2), rng.uniform(1e-5, 0.02))
        closed = mb.interference_probability(a, b)
        quad = interference_probability_quadrature(a, b)
        worst_quad = max(worst_quad, abs(closed - quad))
    quad_ok = worst_quad <= 1e-6

    mc_ok = True
    worst_z = 0.0
    for k in range(10):
        a = mb.GaussianSummary(rng.uniform(0.6, 0.8), rng.uniform(1e-4, 0.01))
        b = mb.GaussianSummary(rng.uniform(0.6, 0.8), rng.uniform(1e-4, 0.01))
        closed = mb.interference_probability(a, b)
        estimate = interference_probability_mc(a, b, trials=TAU, seed=500 + k)
        se = math.sqrt(max(closed * (1 - closed), 1e-12) / TAU)
        worst_z = max(worst_z, abs(estimate - closed) / se)
        mc_ok = mc_ok and abs(estimate - closed) <= 3 * se
    _verdict(
        "C5",
        quad_ok and mc_ok,
        f"max |closed-quadrature| = {worst_quad:.2e}; max MC z-score = {worst_z:.2f}",
    )


# ---------------------------------------------------------------------------
# criterion 6: brute-force convolution oracle for two pairs


def _convolved_rmse_density(variances, edges, grid_points=2501, span=8.0):
    """Numeric convolution of two per-pair residual densities through the RMSE.

    Outer-product quadrature over the two residual Gaussians; completely
    independent of the sampling path.
    """
    s1, s2 = (math.sqrt(v) for v in variances)
    r1 = np.linspace(-span * s1, span * s1, grid_points)
    r2 = np.linspace(-span * s2, span * s2, grid_points)
    w1 = np.exp(-(r1**2) / (2 * variances[0]))
    w2 = np.exp(-(r2**2) / (2 * variances[1]))
    w1 /= w1.sum()
    w2 /= w2.sum()
    z = np.sqrt((r1[:, None] ** 2 + r2[None, :] ** 2) / 2.0)
    weights = w1[:, None] * w2[None, :]
    masses, _ = np.histogram(z.ravel(), bins=edges, weights=weights.ravel())
    return DiscreteDensity(edges=np.asarray(edges), masses=masses / masses.sum())


def test_c6_convolution_oracle():
    variances = (0.9, 0.35)
    dists = mb.PairTable([("u1", "i"), ("u2", "i")], [2.0, 4.0], variances)
    cfg = mb.MCConfig(trials=1_000_000, master_seed=66)
    optimal = mb.optimal_predictors(dists, mb.MetricKind.RMSE)
    sample = mb.simulate_metric(dists, optimal, mb.MetricKind.RMSE, cfg, workers=4)
    simulated = DiscreteDensity.from_histogram(sample.bin_edges, sample.bin_heights)
    convolved = _convolved_rmse_density(variances, sample.bin_edges)
    divergence = jsd(simulated, convolved)
    _verdict("C6", divergence <= 0.02, f"JSD(MC, convolution) = {divergence:.4f} at tau=1e6")


# ---------------------------------------------------------------------------
# criterion 7: always-runnable property bundle


def test_c7_property_bundle(monkeypatch):
    failures = []

    # determinism across worker counts, bit for bit; the pool is capped at
    # the usable CPUs, so lift the cap to run 4 workers threaded on any host
    monkeypatch.setattr(mb.mc, "_usable_cpus", lambda: 4)
    dists = mb.PairTable(
        [(f"u{k}", "i") for k in range(23)], [3.0] * 23, 0.2 + 0.05 * np.arange(23)
    )
    p = mb.optimal_predictors(dists, mb.MetricKind.RMSE)
    cfg = mb.MCConfig(trials=20_000, master_seed=7)
    serial = mb.simulate_metric(dists, p, mb.MetricKind.RMSE, cfg, workers=1)
    threaded = mb.simulate_metric(dists, p, mb.MetricKind.RMSE, cfg, workers=4)
    if not np.array_equal(serial.values, threaded.values):
        failures.append("determinism across thread counts")

    # barrier scaling covariance
    variances = np.array([0.3, 0.9, 1.7, 0.16])
    for c in (0.5, 2.0, 3.7):
        base = mb.magic_barrier_rmse(variances)
        scaled = mb.magic_barrier_rmse(variances * c * c)
        if not (
            math.isclose(scaled.mean, c * base.mean, rel_tol=1e-12)
            and math.isclose(scaled.variance, c * c * base.variance, rel_tol=1e-12)
        ):
            failures.append("scaling covariance")

    # interference complementarity
    rng = np.random.default_rng(77)
    for _ in range(50):
        a = mb.GaussianSummary(rng.uniform(0, 2), rng.uniform(1e-6, 4))
        b = mb.GaussianSummary(rng.uniform(0, 2), rng.uniform(1e-6, 4))
        total = mb.interference_probability(a, b) + mb.interference_probability(b, a)
        if abs(total - 1.0) > 1e-12:
            failures.append("interference complementarity")
            break

    # ranking masses sum to one
    other = mb.PredictorVector(keys=p.keys, values=p.values + 0.2)
    ranking = mb.rank_distribution(
        [p, other], dists, mb.MetricKind.RMSE, mb.MCConfig(trials=9999, master_seed=3)
    )
    if abs(math.fsum(ranking.values()) - 1.0) > 1e-12:
        failures.append("rank masses")

    # error curves: 0.5 at delta 0, strictly decreasing in delta
    points = mb.ranking_error_curves(
        relative_differences=(0.0, 0.05, 0.1, 0.2),
        offsets=(0.3,),
        base_variances=tuple(rng.exponential(1 / 2.11, size=51).tolist()),
    )
    errors = [q.error_probability for q in sorted(points, key=lambda q: q.delta)]
    if errors[0] != 0.5 or not all(x > y for x, y in zip(errors, errors[1:])):
        failures.append("error-curve monotonicity")

    # enumerated scale bounds
    low, high = mb.variance_bounds(mb.ScaleSpec(1, 5, 5))
    if not (math.isclose(low, 0.16, abs_tol=1e-12) and math.isclose(high, 3.84, abs_tol=1e-12)):
        failures.append("variance bounds")

    _verdict("C7", not failures, "all properties" if not failures else "; ".join(failures))


# ---------------------------------------------------------------------------
# criterion 8: published values that are reference points, not targets


def test_c8_qualitative_reference_points():
    notes = []
    ok = True

    # transferred barrier mean: analytic sqrt(1/2.11) lands within the loose
    # +-0.03 band around the published 0.6687; the exact value is not a target
    analytic = math.sqrt(1 / 2.11)
    if abs(analytic - 0.6687) > 0.03:
        ok = False
    notes.append(f"analytic transfer mean {analytic:.4f} vs 0.6687 (+-0.03)")

    # error-curve family: curves fall with distance from the barrier, and
    # systems closer than ~15% relative difference keep a considerable error
    # probability near the barrier; exact published curves are not targets
    rng = np.random.default_rng(88)
    base = tuple(rng.exponential(1 / 2.11, size=213).tolist())
    curve = [
        p.error_probability
        for p in mb.ranking_error_curves(
            relative_differences=(0.10,),
            offsets=(0.1, 0.5, 1.0, 2.0),
            base_variances=base,
        )
    ]
    if not all(x > y for x, y in zip(curve, curve[1:])):
        ok = False
    if not curve[0] > 0.05:
        ok = False
    notes.append(f"delta=0.10 curve near barrier: {curve[0]:.3f} (> 0.05)")

    # interference near the barrier is substantial for a system whose score
    # sits within one combined standard deviation; the published 0.33 example
    # has no reproducible parameters
    barrier = mb.magic_barrier_rmse(np.asarray(base))
    system = mb.GaussianSummary(
        barrier.mean + math.sqrt(2 * barrier.variance) * 0.5, barrier.variance
    )
    interference = mb.interference_probability(barrier, system)
    if not 0.2 < interference < 0.5:
        ok = False
    notes.append(f"near-barrier interference {interference:.3f} in (0.2, 0.5)")

    _verdict("C8", ok, "; ".join(notes))

import itertools
import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from magicbarrier import (
    DiscreteDensity,
    GaussianSummary,
    MCConfig,
    MetricKind,
    PredictorVector,
    ScaleSpec,
    gaussian_cdf,
    improvement_criterion,
    interference_probability,
    jsd,
    kl_divergence,
    rank_distribution,
    ranking_error_curves,
    sensitivity_sweep,
    simulate_metric,
    simulate_metric_shared,
)
from magicbarrier import analysis, mc
from magicbarrier.mc import optimal_predictors

from conftest import make_dists
from oracles import (
    alternating_offsets,
    argsort_ordering_frequencies,
    interference_probability_empirical,
    interference_probability_mc,
    interference_probability_quadrature,
    ranking_error_per_pair,
    shared_draw_precedence,
)


def density(masses, edges=None):
    masses = np.asarray(masses, dtype=float)
    if edges is None:
        edges = np.arange(masses.size + 1, dtype=float)
    return DiscreteDensity(edges=np.asarray(edges, dtype=float), masses=masses)


class TestDiscreteDensity:
    def test_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            density([0.5, 0.4])
        with pytest.raises(ValueError, match=">= 0"):
            density([1.5, -0.5])
        with pytest.raises(ValueError, match="increasing"):
            DiscreteDensity(edges=np.array([0.0, 0.0, 1.0]), masses=np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="increasing"):
            DiscreteDensity(edges=np.array([0.0, np.nan, 1.0]), masses=np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match=">= 0"):
            density([np.nan, 1.0])

    def test_from_gaussian_renormalizes(self):
        g = GaussianSummary(0.0, 1.0)
        edges = np.linspace(-5, 5, 101)
        d = DiscreteDensity.from_gaussian(g, edges)
        assert d.masses.sum() == pytest.approx(1.0)
        center = d.masses[49] + d.masses[50]
        assert center == pytest.approx(
            float(gaussian_cdf(g, edges[51]) - gaussian_cdf(g, edges[49])), rel=1e-6
        )


class TestKLDivergence:
    def test_identical_is_zero(self):
        p = density([0.25, 0.75])
        assert kl_divergence(p, p) == 0.0

    def test_one_bit(self):
        assert kl_divergence(density([1.0, 0.0]), density([0.5, 0.5])) == pytest.approx(1.0)

    def test_absolute_continuity_failure(self):
        assert kl_divergence(density([0.5, 0.5]), density([1.0, 0.0])) == math.inf

    def test_edge_mismatch(self):
        p = density([1.0, 0.0])
        q = density([1.0, 0.0], edges=[0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="identical bin edges"):
            kl_divergence(p, q)


class TestJSD:
    def test_identical_is_zero(self):
        p = density([0.3, 0.3, 0.4])
        assert jsd(p, p) == 0.0

    def test_disjoint_supports_hit_the_maximum(self):
        assert jsd(density([1.0, 0.0]), density([0.0, 1.0])) == pytest.approx(1.0)

    @given(
        raw_p=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
        raw_q=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetric_bounded_and_definite(self, raw_p, raw_q):
        p = density(np.asarray(raw_p) / np.sum(raw_p))
        q = density(np.asarray(raw_q) / np.sum(raw_q))
        forward, backward = jsd(p, q), jsd(q, p)
        assert forward == pytest.approx(backward, rel=1e-9)
        assert 0.0 <= forward <= 1.0 + 1e-12
        assert jsd(p, p) == 0.0


class TestInterference:
    def test_identical_gaussians(self):
        g = GaussianSummary(0.7, 0.003)
        assert interference_probability(g, g) == 0.5

    def test_known_z_score(self):
        a = GaussianSummary(0.70, 0.0009)
        b = GaussianSummary(0.76, 0.0016)
        # (0.70 - 0.76) / sqrt(0.0025) = -1.2
        assert interference_probability(a, b) == pytest.approx(0.11507, abs=1e-5)

    def test_quadrature_route_agrees(self):
        a = GaussianSummary(0.70, 0.0009)
        b = GaussianSummary(0.76, 0.0016)
        closed = interference_probability(a, b)
        quad = interference_probability_quadrature(a, b)
        assert quad == pytest.approx(closed, abs=1e-6)

    def test_degenerate_pairs(self):
        assert interference_probability(GaussianSummary(1.0, 0.0), GaussianSummary(2.0, 0.0)) == 0.0
        assert interference_probability(GaussianSummary(2.0, 0.0), GaussianSummary(1.0, 0.0)) == 1.0
        assert interference_probability(GaussianSummary(1.0, 0.0), GaussianSummary(1.0, 0.0)) == 0.5
        one_sided = interference_probability(GaussianSummary(1.0, 0.0), GaussianSummary(1.0, 1.0))
        assert one_sided == 0.5
        assert interference_probability_quadrature(
            GaussianSummary(1.0, 0.0), GaussianSummary(1.0, 1.0)
        ) == pytest.approx(one_sided, abs=1e-6)

    @given(
        ma=st.floats(-2, 2),
        mb=st.floats(-2, 2),
        va=st.floats(1e-6, 4),
        vb=st.floats(1e-6, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_complementarity(self, ma, mb, va, vb):
        a, b = GaussianSummary(ma, va), GaussianSummary(mb, vb)
        assert interference_probability(a, b) + interference_probability(b, a) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_mc_estimator_consistent(self):
        a = GaussianSummary(0.70, 0.0009)
        b = GaussianSummary(0.76, 0.0016)
        p = interference_probability(a, b)
        trials = 100_000
        estimate = interference_probability_mc(a, b, trials=trials, seed=44)
        se = math.sqrt(p * (1 - p) / trials)
        assert estimate == pytest.approx(p, abs=3 * se)

    def test_empirical_estimator_on_shared_draws(self):
        dists = make_dists(np.tile([0.5, 1.0, 0.7], 20))
        better = optimal_predictors(dists, MetricKind.RMSE)
        worse = PredictorVector(
            keys=better.keys, values=better.values + 1.0
        )
        cfg = MCConfig(trials=20_000, master_seed=31)
        sample_a = simulate_metric(dists, worse, MetricKind.RMSE, cfg)
        sample_b = simulate_metric(dists, better, MetricKind.RMSE, cfg)
        assert interference_probability_empirical(sample_a, sample_b) > 0.99


class TestImprovementCriterion:
    def test_transferred_barrier_vs_contest_winner(self):
        mb = GaussianSummary(0.6687, 0.0007)
        rmse = GaussianSummary(0.8567, 0.0007)
        decision = improvement_criterion(mb, rmse)
        assert decision.simplified_gap == pytest.approx(0.1880, abs=1e-4)
        assert decision.simplified_threshold == pytest.approx(0.1587, abs=5e-4)
        assert not decision.differentiated_analysis_needed
        assert not decision.simplified_needed
        assert decision.margin > 0

    def test_identical_means_need_analysis(self):
        g = GaussianSummary(0.7, 4e-4)
        assert improvement_criterion(g, g).differentiated_analysis_needed

    def test_wide_gap(self):
        mb = GaussianSummary(0.7, 4e-4)
        rmse = GaussianSummary(1.0, 4e-4)
        decision = improvement_criterion(mb, rmse)
        assert decision.simplified_gap == pytest.approx(0.3)
        assert decision.simplified_threshold == pytest.approx(0.12)
        assert not decision.differentiated_analysis_needed

    @given(
        base=st.floats(0.5, 1.0),
        bump=st.floats(0.0, 1.0),
        vm=st.floats(1e-6, 0.01),
        vr=st.floats(1e-6, 0.01),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_system_mean(self, base, bump, vm, vr):
        mb = GaussianSummary(0.7, vm)
        low = improvement_criterion(mb, GaussianSummary(base, vr))
        high = improvement_criterion(mb, GaussianSummary(base + bump, vr))
        # raising the system score can only separate it further from the barrier
        if not low.differentiated_analysis_needed:
            assert not high.differentiated_analysis_needed


class TestSensitivitySweep:
    def test_pair_count_axis_at_scale_maximum(self, scale_5star):
        rows = sensitivity_sweep("pair_count", [10, 50, 100, 500, 213], 3.84, scale_5star)
        means = [r.mean for r in rows]
        assert means == pytest.approx([math.sqrt(3.84)] * len(rows))
        ordered = sorted(rows, key=lambda r: r.axis_value)
        variances = [r.variance for r in ordered]
        assert all(a > b for a, b in zip(variances, variances[1:]))

    def test_single_pair_row_matches_formula(self, scale_5star):
        row = sensitivity_sweep("pair_count", [1], 1.0, scale_5star)[0]
        assert (row.mean, row.variance) == (1.0, 0.5)

    def test_variance_axis_is_linear_in_variance(self, scale_5star):
        grid = [0.16, 0.5, 1.0, 2.0, 3.84]
        rows = sensitivity_sweep("variance", grid, 200, scale_5star)
        for value, row in zip(grid, rows):
            assert row.variance == pytest.approx(value / 400.0, rel=1e-12)
            assert row.mean == pytest.approx(math.sqrt(value), rel=1e-12)

    def test_envelope_uses_scale_bounds(self, scale_5star):
        row = sensitivity_sweep("pair_count", [100], 1.0, scale_5star)[0]
        assert row.envelope_min_mean == pytest.approx(math.sqrt(0.16))
        assert row.envelope_max_mean == pytest.approx(math.sqrt(3.84))
        assert row.envelope_min_variance == pytest.approx(0.16 / 200)
        assert row.envelope_max_variance == pytest.approx(3.84 / 200)

    def test_empty_grid_rejected(self, scale_5star):
        with pytest.raises(ValueError):
            sensitivity_sweep("pair_count", [], 1.0, scale_5star)

    @pytest.mark.parametrize(
        "axis, grid, fixed, count",
        [("pair_count", [1.0, 1.5], 0.7, "1.5"), ("variance", [0.7], 10.7, "10.7")],
        ids=["pair_count", "variance"],
    )
    def test_fractional_pair_count_rejected(self, scale_5star, axis, grid, fixed, count):
        with pytest.raises(ValueError, match=f"^pair count must be an integer, got {count}$"):
            sensitivity_sweep(axis, grid, fixed, scale_5star)

    @pytest.mark.parametrize("axis", ["pair_count", "variance"])
    def test_memory_does_not_grow_with_pair_count(self, scale_5star, axis):
        peaks = []
        for n in (1, 1_000, 4_000_000):
            grid, fixed = ([n], 0.5) if axis == "pair_count" else ([0.5], n)
            tracemalloc.start()
            try:
                sensitivity_sweep(axis, grid, fixed, scale_5star)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 1 << 14, peaks

    @given(value=st.floats(1.0, sys.float_info.max).map(math.floor).map(float))
    @settings(max_examples=100, deadline=None)
    def test_every_finite_count_answers(self, value):
        for axis, grid, fixed in (("pair_count", [value], 0.5), ("variance", [0.5], value)):
            row = sensitivity_sweep(axis, grid, fixed, ScaleSpec(1, 5, 5))[0]
            assert row.mean == math.sqrt(0.5)
            assert 0.0 <= row.variance <= 0.25
            assert 0.0 <= row.envelope_min_variance <= row.envelope_max_variance


def sweep_config(deltas, offsets, n=51):
    rng = np.random.default_rng(7)
    return dict(
        relative_differences=tuple(deltas),
        offsets=tuple(offsets),
        base_variances=tuple(rng.exponential(1 / 2.11, size=n).tolist()),
        noise_scale=1.0,
    )


# the closed form's bits come from numpy's sums
@pytest.mark.simd
class TestRankingErrorCurves:
    def test_zero_delta_is_coin_flip(self):
        cfg = sweep_config([0.0], [0.0, 0.1, 0.5, 1.0])
        for point in ranking_error_curves(**cfg):
            assert point.error_probability == 0.5

    def test_decreasing_in_delta_at_fixed_offset(self):
        deltas = [0.0, 0.05, 0.1, 0.2, 0.4]
        cfg = sweep_config(deltas, [0.3])
        points = ranking_error_curves(**cfg)
        errors = [p.error_probability for p in sorted(points, key=lambda p: p.delta)]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_decreasing_in_offset_at_fixed_delta(self):
        offsets = [0.0, 0.25, 0.5, 1.0, 2.0]
        cfg = sweep_config([0.1], offsets)
        points = ranking_error_curves(**cfg)
        errors = [p.error_probability for p in sorted(points, key=lambda p: p.offset)]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_range(self):
        cfg = sweep_config([0.0, 0.1, 0.3], [0.0, 0.5, 1.5])
        for point in ranking_error_curves(**cfg):
            assert 0.0 < point.error_probability <= 0.5

    def test_error_probability_against_independent_simulation(self):
        cfg = sweep_config([0.10], [0.25], n=51)
        point = ranking_error_curves(**cfg)[0]
        base = np.asarray(cfg["base_variances"])
        n = base.size
        means = np.full(n, 3.0)
        dists = make_dists(base, means=means)
        tau = 50_000
        samples = []
        for offset, seed in ((0.25, 1001), (0.35, 2002)):
            predictions = means - alternating_offsets(offset, n)
            p = PredictorVector(
                keys=dists.keys, values=predictions
            )
            samples.append(
                simulate_metric(dists, p, MetricKind.RMSE, MCConfig(trials=tau, master_seed=seed))
            )
        estimate = float(np.mean(samples[1].values < samples[0].values))
        se = math.sqrt(point.error_probability * (1 - point.error_probability) / tau)
        assert estimate == pytest.approx(point.error_probability, abs=4 * se)

    @pytest.mark.parametrize("n", [1, 2, 51, 1000], ids=["one", "even", "odd", "many"])
    @given(
        seed=st.integers(0, 2**16),
        deltas=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3),
        offsets=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3).map(sorted),
        noise_scale=st.floats(0.1, 5.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_per_pair_offsets(self, n, seed, deltas, offsets, noise_scale):
        """Each point is the closed form on alternating-sign offset arrays."""
        base = np.random.default_rng(seed).exponential(1 / 2.11, n)
        points = ranking_error_curves(base, [0.0, *deltas], offsets, noise_scale)
        expected = [
            ranking_error_per_pair(base, delta, offset, noise_scale)
            for delta in [0.0, *deltas]
            for offset in offsets
        ]
        for point, want in zip(points, expected, strict=True):
            if point.delta == 0.0:
                assert point.error_probability == 0.5
            assert point.error_probability == pytest.approx(want, abs=1e-13, rel=0)

    def test_memory_does_not_grow_with_grid(self):
        """One pass over the variances serves every grid point: the peak
        stays below two float64 arrays of N, however large the grid."""
        base = np.random.default_rng(0).exponential(1 / 2.11, 100_000)
        grid = [0.05 * k for k in range(20)]
        tracemalloc.start()
        try:
            ranking_error_curves(base, grid, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * base.nbytes, peak / base.nbytes

    @pytest.mark.parametrize("scale", [1e200, np.float64(1e200)], ids=["float", "numpy"])
    def test_overflowing_grid(self, scale):
        """Refused with OverflowError, and no numpy warning on the way."""
        with pytest.raises(OverflowError, match="overflow float64"):
            ranking_error_curves([0.5, 0.7], [0.0, 1.0], [0.0, 1e200], scale)

    @pytest.mark.parametrize(
        "bad, message",
        [(-0.1, "variances must be >= 0"), (math.nan, "base_variances must be finite")],
        ids=["negative", "nan"],
    )
    def test_invalid_base_variances(self, bad, message):
        with pytest.raises(ValueError, match=message):
            ranking_error_curves([0.5, bad, 0.7], [0.1], [0.0])

    def test_config_validation(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            ranking_error_curves(**sweep_config([0.1], [0.5, 0.2]))
        with pytest.raises(ValueError):
            ranking_error_curves(
                relative_differences=(0.1,),
                offsets=(0.0,),
                base_variances=(),
            )


def counter_rank_distribution(systems, dists, metric, cfg):
    """Reference: one ordering tuple per trial, counted in a Python Counter."""
    values = simulate_metric_shared(dists, systems, metric, cfg)
    order = np.argsort(values, axis=0, kind="stable")
    counts = Counter(tuple(int(i) for i in column) for column in order.T)
    return {ordering: count / cfg.trials for ordering, count in counts.items()}


RANK_SHIFTS = [
    (0.0, 0.05, 0.1),
    (0.0, 0.0, 0.02, -0.02),  # two identical systems: ties by index
    tuple(0.01 * k for k in range(16)),  # K**K overflows the code space
]


def rank_systems(dists, shifts):
    base = optimal_predictors(dists, MetricKind.RMSE)
    return [PredictorVector(keys=base.keys, values=base.values + s) for s in shifts]


def precedence(ranking, i, j):
    """P(system i ranks before system j) from an ordering map."""
    return math.fsum(p for o, p in ranking.items() if o.index(i) < o.index(j))


def pooled_counts(rank, systems, dists, seeds, tau):
    """RMSE ordering counts of ``rank`` pooled over tau trials per seed."""
    counts = Counter()
    for seed in seeds:
        ranking = rank(systems, dists, MetricKind.RMSE, MCConfig(trials=tau, master_seed=seed))
        counts.update({o: round(p * tau) for o, p in ranking.items()})
    return counts


# The law checks below allow Z_LAW standard errors or a chi-square beyond its
# LAW_FALSE_ALARM quantile: a correct sampler fails each by chance at most
# once in 10,000 draws of its seeds (3.891 is the two-sided normal quantile).
Z_LAW = 3.891
LAW_FALSE_ALARM = 1e-4


# the factor's pivots fix how many normals a trial draws
@pytest.mark.simd
class TestRankDistribution:
    # MAE orderings come from the N-draw kernel, bit for bit (RMSE ones from
    # projected normals, checked in law below). The default block holds all
    # 3000 trials at N = 20; blocks of 400 trials give seven full blocks and a
    # short last one, whose counts must merge
    @pytest.mark.parametrize(
        "shifts, block_trials, workers",
        [pytest.param(s, None, 1, id=f"shifts{i}") for i, s in enumerate(RANK_SHIFTS)]
        + [
            pytest.param(s, 400, w, id=f"shifts{i}-blocks400-workers{w}")
            for i, s in enumerate(RANK_SHIFTS)
            for w in (1, 2, 3)
        ],
    )
    def test_matches_counter_reference(self, monkeypatch, shifts, block_trials, workers):
        if block_trials is not None:
            monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", block_trials * 20)
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 3)
        dists = make_dists(np.linspace(0.3, 1.5, 20))
        systems = rank_systems(dists, shifts)
        cfg = MCConfig(trials=3000, master_seed=12)
        ranking = rank_distribution(systems, dists, MetricKind.MAE, cfg, workers=workers)
        expected = counter_rank_distribution(systems, dists, MetricKind.MAE, cfg)
        assert ranking == expected
        assert list(ranking) == sorted(expected)
        assert all(type(i) is int for ordering in ranking for i in ordering)

    @pytest.mark.parametrize(
        "shifts", [*RANK_SHIFTS, "patterns"], ids=["shifts0", "shifts1", "shifts2", "patterns"]
    )
    def test_rmse_bytes_fixed_by_seed(self, monkeypatch, shifts):
        # RMSE blocks hold 2**14 // K trials whatever N and the N-draw block
        # size: 12,000 trials span 3 to 12 of them, the last one short. The
        # shifts are constant, so their offset rows have rank 1; the patterns
        # are three independent rows beside the optimal predictor, full rank
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 3)
        dists = make_dists(np.linspace(0.3, 1.5, 20))
        if shifts == "patterns":
            shifts = [0.0, *np.random.default_rng(8).normal(0.0, 0.2, (3, 20))]
        systems = rank_systems(dists, shifts)
        cfg = MCConfig(trials=12_000, master_seed=12)
        reference = list(rank_distribution(systems, dists, MetricKind.RMSE, cfg).items())
        for block_trials in (None, 400):
            if block_trials is not None:
                monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", block_trials * 20)
            for workers in (1, 2, 3):
                ranking = rank_distribution(systems, dists, MetricKind.RMSE, cfg, workers)
                assert list(ranking.items()) == reference
        k = len(systems)
        assert math.fsum(p for _, p in reference) == pytest.approx(1.0, abs=1e-12)
        assert all(sorted(o) == list(range(k)) for o, _ in reference)
        assert all(type(i) is int for o, _ in reference for i in o)

    def test_rmse_matches_counter_reference_in_law(self):
        # five systems on rank-3 offset rows plus one duplicate and the
        # optimal predictor, so that 24 orderings carry mass; each side pools
        # four seeds of its own, since rank's stream for a seed starts with
        # the normals the N-draw kernel uses for it
        dists = make_dists(np.linspace(0.3, 1.5, 20))
        p = np.random.default_rng(3).normal(0.0, 0.2, (3, 20))
        systems = rank_systems(dists, [0.0, p[0], p[0], p[1], 0.6 * p[2] + 0.05])
        ours = pooled_counts(rank_distribution, systems, dists, (4, 5, 11, 17), 20_000)
        theirs = pooled_counts(
            counter_rank_distribution, systems, dists, (104, 105, 111, 117), 20_000
        )
        orderings = sorted(ours.keys() | theirs.keys())
        table = np.array([[c[o] for o in orderings] for c in (ours, theirs)], dtype=float)
        # orderings seen under 10 times in all are pooled into one cell
        sparse = table.sum(axis=0) < 10
        table = np.column_stack([table[:, ~sparse], table[:, sparse].sum(axis=1)])
        table = table[:, table.sum(axis=0) > 0]
        assert table.shape[1] >= 20
        expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
        statistic = float(np.sum((table - expected) ** 2 / expected))
        assert statistic < chi2.isf(LAW_FALSE_ALARM, table.shape[1] - 1)

    @pytest.mark.parametrize(
        "shifts",
        [(0.0, 0.05), (0.05, -0.08), "patterns"],
        ids=["optimal-vs-shift", "two-shifts", "two-patterns"],
    )
    def test_two_systems_match_shared_draw_phi(self, shifts):
        dists = make_dists(np.linspace(0.3, 1.5, 20))
        if shifts == "patterns":
            shifts = np.random.default_rng(8).normal(0.0, 0.2, (2, 20))
        systems = rank_systems(dists, shifts)
        tau = 200_000
        ranking = rank_distribution(
            systems, dists, MetricKind.RMSE, MCConfig(trials=tau, master_seed=21)
        )
        offsets = [dists.means - s.values for s in systems]
        exact = shared_draw_precedence(dists.variances, *offsets)
        se = math.sqrt(exact * (1.0 - exact) / tau)
        assert abs(ranking.get((0, 1), 0.0) - exact) <= Z_LAW * se

    def test_rank_deficient_offsets(self):
        # offsets o, 2o and -o give a Gram matrix of rank 1; every pair still
        # follows the shared-draw Phi formula
        dists = make_dists(np.linspace(0.3, 1.5, 20))
        o = np.random.default_rng(5).normal(0.0, 0.1, 20)
        systems = rank_systems(dists, [o, 2.0 * o, -o])
        tau = 100_000
        ranking = rank_distribution(
            systems, dists, MetricKind.RMSE, MCConfig(trials=tau, master_seed=2)
        )
        offsets = [dists.means - s.values for s in systems]
        for i, j in itertools.combinations(range(3), 2):
            exact = shared_draw_precedence(dists.variances, offsets[i], offsets[j])
            se = max(math.sqrt(exact * (1.0 - exact) / tau), 1.0 / tau)
            assert abs(precedence(ranking, i, j) - exact) <= Z_LAW * se

    @pytest.mark.parametrize("metric", [MetricKind.RMSE, MetricKind.MAE])
    def test_identical_systems_rank_by_index(self, metric):
        dists = make_dists(np.linspace(0.3, 1.5, 20))
        p = np.random.default_rng(6).normal(0.0, 0.2, (2, 20))
        systems = rank_systems(dists, [p[0], p[1], p[1], p[0]])
        ranking = rank_distribution(systems, dists, metric, MCConfig(trials=5000, master_seed=4))
        assert all(o.index(1) < o.index(2) and o.index(0) < o.index(3) for o in ranking)
        assert len(ranking) > 1
        same = rank_systems(dists, [0.0, 0.0, 0.0])
        assert rank_distribution(
            same, dists, metric, MCConfig(trials=5000, master_seed=4)
        ) == {(0, 1, 2): 1.0}

    def test_memory_flat_in_tau(self, monkeypatch):
        # orderings are counted block by block: no K x tau array is held
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
        dists = make_dists(np.linspace(0.3, 1.5, 500))
        base = optimal_predictors(dists, MetricKind.RMSE)
        systems = [
            PredictorVector(keys=base.keys, values=base.values + s)
            for s in (0.0, 0.02, 0.04, 0.06)
        ]
        peaks = []
        for tau in (20_000, 400_000):
            tracemalloc.start()
            try:
                rank_distribution(
                    systems, dists, MetricKind.RMSE,
                    MCConfig(trials=tau, master_seed=1), workers=2,
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 2 << 20, peaks

    def test_nonfinite_predictions_refused(self):
        dists = make_dists([0.5, 0.9])
        optimal = optimal_predictors(dists, MetricKind.RMSE)
        with pytest.raises(ValueError, match="values must be finite"):
            rank_distribution(
                [optimal, PredictorVector(dists.keys, [3.0, math.nan])], dists,
                MetricKind.RMSE, MCConfig(trials=100, master_seed=1),
            )

    def test_single_system(self):
        dists = make_dists([0.5, 0.9])
        systems = [optimal_predictors(dists, MetricKind.RMSE)]
        ranking = rank_distribution(systems, dists, MetricKind.RMSE, MCConfig(trials=100, master_seed=1))
        assert ranking == {(0,): 1.0}

    def test_well_separated_systems(self):
        dists = make_dists(np.full(200, 0.5))
        better = optimal_predictors(dists, MetricKind.RMSE)
        worse = PredictorVector(
            keys=better.keys, values=better.values + 1.2
        )
        ranking = rank_distribution(
            [worse, better], dists, MetricKind.RMSE, MCConfig(trials=20_000, master_seed=9)
        )
        assert ranking.get((1, 0), 0.0) > 0.999

    def test_masses_sum_to_one(self):
        dists = make_dists([0.5, 0.9, 1.4])
        base = optimal_predictors(dists, MetricKind.RMSE)
        systems = [
            base,
            PredictorVector(keys=base.keys, values=base.values + 0.2),
            PredictorVector(keys=base.keys, values=base.values - 0.3),
        ]
        ranking = rank_distribution(systems, dists, MetricKind.RMSE, MCConfig(trials=7777, master_seed=3))
        assert math.fsum(ranking.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(p > 0 for p in ranking.values())

    def test_reproducible_per_seed(self):
        dists = make_dists([0.5, 0.9])
        base = optimal_predictors(dists, MetricKind.RMSE)
        other = PredictorVector(keys=base.keys, values=base.values + 0.1)
        cfg = MCConfig(trials=4000, master_seed=77)
        assert rank_distribution([base, other], dists, MetricKind.RMSE, cfg) == rank_distribution(
            [base, other], dists, MetricKind.RMSE, cfg
        )

    def test_overlap_structure_limits_orderings(self):
        # three systems: two close together near the barrier, one far worse;
        # orderings that put the far system ahead must receive no mass
        dists = make_dists(np.full(100, 0.6))
        base = optimal_predictors(dists, MetricKind.RMSE)
        near = PredictorVector(keys=base.keys, values=base.values + 0.05)
        far = PredictorVector(keys=base.keys, values=base.values + 1.5)
        ranking = rank_distribution(
            [base, near, far], dists, MetricKind.RMSE, MCConfig(trials=20_000, master_seed=5)
        )
        observed = set(ranking)
        assert observed <= {(0, 1, 2), (1, 0, 2)}
        assert len(observed) == 2


# 15**15 fits intp and 16**16 does not, so 16 and 17 take the byte-key
# path; 300 systems need uint16 ranks
COUNTER_KS = [1, 2, 3, 4, 8, 15, 16, 17, 300]


def tie_shifts(k):
    """Shifts 0, 0, -0.02, -0.02, 0.04, 0.04, ...: two all-zero-offset
    systems, then pairs of identical ones."""
    return [0.02 * (i // 2) * (-1) ** (i // 2) for i in range(k)]


# the ordering counts come from numpy's unique sorts
@pytest.mark.simd
class TestOrderingCounter:
    # the comparison counter must give the argsort counter's mapping, item for
    # item and in the same order, wherever values tie

    @staticmethod
    def check(blocks, k):
        tau = sum(b.shape[1] for b in blocks)
        ours = analysis._ordering_frequencies(iter(blocks), k, tau)
        reference = argsort_ordering_frequencies(blocks, k, tau)
        assert list(ours.items()) == list(reference.items())
        assert all(type(i) is int for ordering in ours for i in ordering)

    @pytest.mark.parametrize("k", COUNTER_KS)
    def test_equal_scores(self, k):
        # scores drawn from three values tie often, and in every trial once
        # k > 3; the first block is constant, so every system ties with every
        # other
        rng = np.random.default_rng(k)
        widths = (5, 200, 1) if k > 255 else (5, 700, 300, 1)
        blocks = [np.full((k, widths[0]), 0.5)]
        blocks += [rng.integers(0, 3, (k, nt)).astype(np.float64) for nt in widths[1:]]
        self.check(blocks, k)

    @pytest.mark.parametrize("k", [2, 4, 16, 17])
    def test_counts_merged_across_blocks(self, monkeypatch, k):
        # the held keys are merged whenever the blocks since the last merge
        # hold more of them than it left and than the block just counted has
        # trials, which blocks of 1 and 60 trials reach again and again
        merges = []
        merged_counts = analysis._merged_counts
        monkeypatch.setattr(
            analysis, "_merged_counts", lambda *a: merges.append(1) or merged_counts(*a)
        )
        rng = np.random.default_rng(k)
        blocks = [rng.integers(0, 4, (k, nt)).astype(np.float64) for nt in [1, 60] * 20]
        self.check(blocks, k)
        assert len(merges) > 2

    def test_held_keys_stay_bounded(self, monkeypatch):
        # many small blocks: each merge receives at most about twice the
        # distinct orderings plus a block's trials, whatever tau
        received = []
        merged_counts = analysis._merged_counts
        monkeypatch.setattr(
            analysis,
            "_merged_counts",
            lambda keys, counts: received.append(sum(map(len, keys)))
            or merged_counts(keys, counts),
        )
        k, nt = 4, 10
        rng = np.random.default_rng(4)
        blocks = [rng.standard_normal((k, nt)) for _ in range(1_000)]
        self.check(blocks, k)
        distinct = len(argsort_ordering_frequencies(blocks, k, nt * len(blocks)))
        assert len(received) > 1
        assert max(received) <= 2 * (distinct + nt), received

    @pytest.mark.parametrize("k", COUNTER_KS)
    def test_rmse_blocks(self, k):
        dists = make_dists(np.linspace(0.3, 1.5, 20))
        systems = rank_systems(dists, tie_shifts(k))
        block = max(1, mc._RANK_BLOCK_ELEMENTS // k)
        cfg = MCConfig(trials=min(2 * block + 7, 3000), master_seed=31)
        self.check(list(mc._rmse_score_blocks(dists, systems, cfg)), k)

    @pytest.mark.parametrize("k", COUNTER_KS)
    def test_mae_blocks(self, monkeypatch, k):
        # blocks of 400 trials at N = 20
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", 400 * 20)
        dists = make_dists(np.linspace(0.3, 1.5, 20))
        systems = rank_systems(dists, tie_shifts(k))
        cfg = MCConfig(trials=300 if k > 255 else 1000, master_seed=31)
        self.check(list(mc._metric_blocks(dists, systems, MetricKind.MAE, cfg)), k)

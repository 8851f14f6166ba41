import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicbarrier import (
    DiscreteDensity,
    GaussianSummary,
    MCConfig,
    MetricKind,
    PredictorVector,
    ScaleSpec,
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
from magicbarrier.analysis import alternating_offsets
from magicbarrier.mc import optimal_predictors

from conftest import make_dists
from oracles import (
    interference_probability_empirical,
    interference_probability_mc,
    interference_probability_quadrature,
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
            float(g.cdf(edges[51]) - g.cdf(edges[49])), rel=1e-6
        )

    def test_json_payload(self):
        d = density([0.25, 0.75])
        doc = d.to_json_dict()
        assert doc == {"edges": [0.0, 1.0, 2.0], "masses": [0.25, 0.75]}


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

    @given(value=st.floats(1.0, sys.float_info.max))
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


class TestRankDistribution:
    @pytest.mark.parametrize(
        "shifts",
        [
            (0.0, 0.05, 0.1),
            (0.0, 0.0, 0.02, -0.02),  # two identical systems: ties by index
            tuple(0.01 * k for k in range(16)),  # K**K overflows the code space
        ],
    )
    def test_matches_counter_reference(self, shifts):
        dists = make_dists(np.linspace(0.3, 1.5, 20))
        base = optimal_predictors(dists, MetricKind.RMSE)
        systems = [
            PredictorVector(keys=base.keys, values=base.values + s)
            for s in shifts
        ]
        cfg = MCConfig(trials=3000, master_seed=12)
        ranking = rank_distribution(systems, dists, MetricKind.RMSE, cfg)
        assert ranking == counter_rank_distribution(systems, dists, MetricKind.RMSE, cfg)
        assert all(type(i) is int for ordering in ranking for i in ordering)

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

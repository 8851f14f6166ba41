import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from magicbarrier import mc
from magicbarrier import (
    GaussianSummary,
    MCConfig,
    MetricKind,
    PredictorVector,
    optimal_predictors,
    simulate_metric,
    simulate_metric_shared,
)

from conftest import make_dists
from oracles import evaluate_metric_once

HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)
HALF_NORMAL_VAR = 1.0 - 2.0 / math.pi


class TestMCConfig:
    def test_default_bins(self):
        assert MCConfig(trials=100_000).resolved_bins == 317
        assert MCConfig(trials=10_000_000).resolved_bins == 512
        assert MCConfig(trials=100, bins=20).resolved_bins == 20

    def test_invalid(self):
        with pytest.raises(ValueError):
            MCConfig(trials=0)
        with pytest.raises(ValueError):
            MCConfig(trials=10, bins=1)
        with pytest.raises(ValueError):
            MCConfig(trials=10, master_seed=-1)
        with pytest.raises(ValueError):
            MCConfig(trials=10, master_seed=2**64)
        assert MCConfig(trials=10, master_seed=2**64 - 1).master_seed == 2**64 - 1


class TestOptimalPredictors:
    def test_rmse_predicts_means(self):
        dists = make_dists([0.16, 3.84, 0.0], means=[1.2, 2.6, 3.0])
        p = optimal_predictors(dists, MetricKind.RMSE)
        assert p.values.tolist() == [1.2, 2.6, 3.0]

    def test_mae_matches_rmse_under_gaussian_model(self):
        dists = make_dists([0.16, 3.84, 0.0], means=[1.2, 2.6, 3.0])
        assert np.array_equal(
            optimal_predictors(dists, MetricKind.MAE).values,
            optimal_predictors(dists, MetricKind.RMSE).values,
        )

    def test_degenerate_pair(self):
        dists = make_dists([0.0], means=[4.0])
        assert optimal_predictors(dists, MetricKind.RMSE).values.tolist() == [4.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            optimal_predictors(make_dists([]), MetricKind.RMSE)


class TestEvaluateOnce:
    def test_perfect_prediction(self):
        dists = make_dists([1.0, 1.0], means=[2.0, 2.0])
        p = optimal_predictors(dists, MetricKind.RMSE)
        assert evaluate_metric_once(dists, p, MetricKind.RMSE, [2.0, 2.0]) == 0.0

    def test_known_residuals(self):
        dists = make_dists([1.0, 1.0], means=[2.0, 2.0])
        p = optimal_predictors(dists, MetricKind.RMSE)
        assert evaluate_metric_once(dists, p, MetricKind.RMSE, [1.0, 3.0]) == pytest.approx(1.0)
        assert evaluate_metric_once(dists, p, MetricKind.MAE, [1.0, 3.0]) == pytest.approx(1.0)

    def test_length_mismatch(self):
        dists = make_dists([1.0, 1.0])
        p = optimal_predictors(dists, MetricKind.RMSE)
        with pytest.raises(ValueError):
            evaluate_metric_once(dists, p, MetricKind.RMSE, [1.0])


class TestSimulate:
    def test_zero_variance_is_degenerate_at_zero(self):
        dists = make_dists([0.0, 0.0], means=[2.0, 4.0])
        p = optimal_predictors(dists, MetricKind.RMSE)
        sample = simulate_metric(dists, p, MetricKind.RMSE, MCConfig(trials=500))
        assert np.all(sample.values == 0.0)
        assert sample.summary == GaussianSummary(0.0, 0.0)

    def test_single_pair_half_normal_mean(self):
        # RMSE of one unit-variance pair under its optimal predictor is |N(0,1)|,
        # so the exact mean and variance are known without any approximation
        dists = make_dists([1.0])
        tau = 1_000_000
        sample = simulate_metric(
            dists, optimal_predictors(dists, MetricKind.RMSE), MetricKind.RMSE,
            MCConfig(trials=tau, master_seed=3),
        )
        se = math.sqrt(HALF_NORMAL_VAR / tau)
        assert sample.summary.mean == pytest.approx(HALF_NORMAL_MEAN, abs=3 * se)

    def test_homogeneous_1000_pairs_against_closed_form(self):
        n, s2, tau = 1000, 0.5, 100_000
        dists = make_dists(np.full(n, s2))
        sample = simulate_metric(
            dists, optimal_predictors(dists, MetricKind.RMSE), MetricKind.RMSE,
            MCConfig(trials=tau, master_seed=11),
        )
        approx_var = 2.5e-4
        se = math.sqrt(approx_var / tau)

        # exact mean through the chi distribution: RMSE = sqrt(s2/n) * chi_n
        import mpmath

        exact = float(
            mpmath.sqrt(2 * s2 / n) * mpmath.gamma((n + 1) / 2) / mpmath.gamma(n / 2)
        )
        assert sample.summary.mean == pytest.approx(exact, abs=3 * se)

        # the first-order value sqrt(0.5) carries a truncation bias of the
        # size predicted by the second-order series term
        # sqrt(E[Z]) - V[Z] / (8 E[Z]^1.5); allow exactly that
        ez, vz = s2, 2.0 * s2 * s2 / n
        order2_shift = abs(math.sqrt(ez) - vz / (8.0 * ez**1.5) - math.sqrt(s2))
        assert sample.summary.mean == pytest.approx(math.sqrt(s2), abs=3 * se + order2_shift)

        assert sample.summary.variance == pytest.approx(approx_var, rel=0.10)

    def test_mae_single_pair(self):
        dists = make_dists([1.0])
        tau = 200_000
        sample = simulate_metric(
            dists, optimal_predictors(dists, MetricKind.MAE), MetricKind.MAE,
            MCConfig(trials=tau, master_seed=5),
        )
        se = math.sqrt(HALF_NORMAL_VAR / tau)
        assert sample.summary.mean == pytest.approx(HALF_NORMAL_MEAN, abs=3 * se)

    def test_nonfinite_predictions_refused(self):
        dists = make_dists([0.5, 0.9])
        with pytest.raises(ValueError, match="values must be finite"):
            simulate_metric(
                dists, PredictorVector(dists.keys, [3.0, math.nan]), MetricKind.RMSE,
                MCConfig(trials=100, master_seed=1),
            )


class TestDeterminism:
    def test_bit_identical_across_runs_and_workers(self, monkeypatch):
        # the pool is capped at the usable CPUs; lift the cap so 4 workers
        # run threaded on any host
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 4)
        dists = make_dists(np.linspace(0.2, 2.0, 37), means=np.linspace(1, 5, 37))
        p = optimal_predictors(dists, MetricKind.RMSE)
        cfg = MCConfig(trials=10_000, master_seed=99)
        a = simulate_metric(dists, p, MetricKind.RMSE, cfg, workers=1)
        b = simulate_metric(dists, p, MetricKind.RMSE, cfg, workers=1)
        c = simulate_metric(dists, p, MetricKind.RMSE, cfg, workers=4)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.values, c.values)

    def test_seed_changes_values(self):
        dists = make_dists([0.5, 1.0])
        p = optimal_predictors(dists, MetricKind.RMSE)
        a = simulate_metric(dists, p, MetricKind.RMSE, MCConfig(trials=100, master_seed=1))
        b = simulate_metric(dists, p, MetricKind.RMSE, MCConfig(trials=100, master_seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_trial_prefix_stable_in_tau(self):
        # per-trial counter addressing: growing tau must not change earlier trials
        dists = make_dists([0.7, 0.9, 1.1])
        p = optimal_predictors(dists, MetricKind.RMSE)
        short = simulate_metric(dists, p, MetricKind.RMSE, MCConfig(trials=1000, master_seed=7))
        long = simulate_metric(dists, p, MetricKind.RMSE, MCConfig(trials=9000, master_seed=7))
        assert np.array_equal(short.values, long.values[:1000])


class TestScaling:
    def test_rmse_realizations_scale_linearly(self):
        c = 3.7
        variances = np.array([0.4, 1.1, 0.9])
        means = np.array([2.0, 3.0, 4.0])
        dists = make_dists(variances, means=means)
        scaled = make_dists(variances * c * c, means=means)
        offsets = np.array([0.3, -0.2, 0.1])
        p = PredictorVector(keys=dists.keys, values=means - offsets)
        p_scaled = PredictorVector(keys=scaled.keys, values=means - offsets * c)
        cfg = MCConfig(trials=2000, master_seed=21)
        base = simulate_metric(dists, p, MetricKind.RMSE, cfg)
        big = simulate_metric(scaled, p_scaled, MetricKind.RMSE, cfg)
        assert np.allclose(big.values, c * base.values, rtol=1e-12)


class TestTauRefinement:
    def test_variance_of_mean_shrinks_as_one_over_tau(self):
        dists = make_dists(np.full(50, 0.8))
        p = optimal_predictors(dists, MetricKind.RMSE)
        est = {}
        for tau in (1000, 10_000, 100_000):
            s = simulate_metric(dists, p, MetricKind.RMSE, MCConfig(trials=tau, master_seed=13))
            est[tau] = s.summary.variance / tau
        assert est[1000] / est[10_000] == pytest.approx(10.0, rel=0.5)
        assert est[10_000] / est[100_000] == pytest.approx(10.0, rel=0.5)


class TestMetricSample:
    def test_histogram_is_normalized(self):
        dists = make_dists([0.3, 0.9, 1.5])
        sample = simulate_metric(
            dists, optimal_predictors(dists, MetricKind.RMSE), MetricKind.RMSE,
            MCConfig(trials=5000, master_seed=2),
        )
        mass = np.sum(sample.bin_heights * np.diff(sample.bin_edges))
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_summary_mean_matches_values(self):
        dists = make_dists([0.3, 0.9])
        sample = simulate_metric(
            dists, optimal_predictors(dists, MetricKind.RMSE), MetricKind.RMSE,
            MCConfig(trials=4096, master_seed=2),
        )
        assert sample.summary.mean == pytest.approx(float(sample.values.mean()), rel=1e-12)
        assert sample.values.flags.writeable is False

    def test_json_payload(self):
        dists = make_dists([0.3])
        sample = simulate_metric(
            dists, optimal_predictors(dists, MetricKind.RMSE), MetricKind.RMSE,
            MCConfig(trials=64, master_seed=0),
        )
        doc = sample.to_json_dict()
        assert set(doc) == {"mean", "variance", "histogram"}
        assert len(doc["histogram"]["edges"]) == len(doc["histogram"]["heights"]) + 1
        assert sample.to_json_dict(values_path="x.f64")["values_path"] == "x.f64"


class TestClipping:
    def test_clip_bounds_cap_the_metric(self):
        # enormous variance: unclipped draws routinely leave the scale
        dists = make_dists([400.0], means=[3.0])
        p = optimal_predictors(dists, MetricKind.RMSE)
        cfg = MCConfig(trials=2000, master_seed=4)
        free = simulate_metric(dists, p, MetricKind.RMSE, cfg)
        clipped = simulate_metric(dists, p, MetricKind.RMSE, cfg, clip_bounds=(1.0, 5.0))
        assert float(free.values.max()) > 4.0
        assert float(clipped.values.max()) <= 4.0  # max |draw - 3| inside [1, 5] is 2


class TestSharedDraws:
    def test_identical_systems_get_identical_values(self):
        dists = make_dists([0.5, 0.7])
        p = optimal_predictors(dists, MetricKind.RMSE)
        values = simulate_metric_shared(dists, [p, p], MetricKind.RMSE, MCConfig(trials=256, master_seed=6))
        assert np.array_equal(values[0], values[1])

    def test_shared_rows_match_single_simulation(self):
        dists = make_dists([0.5, 0.7, 1.2])
        p = optimal_predictors(dists, MetricKind.RMSE)
        q = PredictorVector(keys=p.keys, values=p.values + 0.25)
        cfg = MCConfig(trials=512, master_seed=8)
        both = simulate_metric_shared(dists, [p, q], MetricKind.RMSE, cfg)
        alone = simulate_metric(dists, p, MetricKind.RMSE, cfg)
        assert np.array_equal(both[0], alone.values)


class TestBlockContract:
    """Values depend on (seed, trial, N) only: never on block size or threads."""

    N = 37

    def _dists(self):
        return make_dists(
            np.linspace(0.2, 2.0, self.N), means=np.linspace(1.2, 4.8, self.N)
        )

    def _systems(self, dists):
        p = optimal_predictors(dists, MetricKind.RMSE)
        q = PredictorVector(keys=p.keys, values=p.values + 0.3)
        r = PredictorVector(keys=p.keys, values=p.values - 0.45)
        return [p, q, r]

    def _run(self, metric, clip_bounds, workers=1):
        dists = self._dists()
        return simulate_metric_shared(
            dists,
            self._systems(dists),
            metric,
            MCConfig(trials=200, master_seed=42),
            workers=workers,
            clip_bounds=clip_bounds,
        )

    @pytest.mark.parametrize("metric", [MetricKind.RMSE, MetricKind.MAE])
    @pytest.mark.parametrize("clip_bounds", [None, (1.0, 5.0)])
    @pytest.mark.parametrize("trials_per_task", [1, 3, 37])
    def test_values_independent_of_block_size(
        self, monkeypatch, metric, clip_bounds, trials_per_task
    ):
        default = self._run(metric, clip_bounds)
        monkeypatch.setattr(
            mc, "_BLOCK_ELEMENTS", trials_per_task * mc._trial_words(self.N)
        )
        assert np.array_equal(self._run(metric, clip_bounds), default)

    def test_clipped_values_independent_of_workers(self, monkeypatch):
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", 7 * mc._trial_words(self.N))
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 3)
        serial = self._run(MetricKind.RMSE, (1.0, 5.0), workers=1)
        for workers in (2, 3):
            threaded = self._run(MetricKind.RMSE, (1.0, 5.0), workers=workers)
            assert np.array_equal(threaded, serial)

    def test_unclipped_rmse_values_independent_of_workers(self, monkeypatch):
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", 7 * mc._trial_words(self.N))
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 3)
        serial = self._run(MetricKind.RMSE, None, workers=1)
        for workers in (2, 3):
            threaded = self._run(MetricKind.RMSE, None, workers=workers)
            assert np.array_equal(threaded, serial)

    @pytest.mark.parametrize(
        "workers, cpus, tasks, expected",
        [(8, 3, 50, 3), (2, 3, 50, 2), (8, 3, 2, 2), (8, 3, 1, None), (1, 3, 50, None)],
    )
    def test_thread_pool_capped(self, monkeypatch, workers, cpus, tasks, expected):
        seen = []

        class RecordingPool(mc.ThreadPoolExecutor):
            def __init__(self, max_workers):
                seen.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(mc, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(mc, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", mc._trial_words(self.N))
        dists = self._dists()
        simulate_metric(
            dists,
            optimal_predictors(dists, MetricKind.RMSE),
            MetricKind.RMSE,
            MCConfig(trials=tasks, master_seed=1),
            workers=workers,
        )
        assert seen == ([] if expected is None else [expected])

    def test_usable_cpus_within_cpu_count(self):
        assert 1 <= mc._usable_cpus() <= (os.cpu_count() or 1)

    def test_block_stays_within_element_budget(self, monkeypatch):
        n, tau = 5001, 300
        blocks = []
        draw_block = mc._draw_block

        def recording(master_seed, k0, n_trials, n_pairs, **kwargs):
            blocks.append(n_trials)
            return draw_block(master_seed, k0, n_trials, n_pairs, **kwargs)

        monkeypatch.setattr(mc, "_draw_block", recording)
        dists = make_dists(np.full(n, 0.5))
        simulate_metric(
            dists,
            optimal_predictors(dists, MetricKind.RMSE),
            MetricKind.RMSE,
            MCConfig(trials=tau, master_seed=3),
        )
        assert sum(blocks) == tau
        assert max(blocks) * mc._trial_words(n) <= mc._BLOCK_ELEMENTS

    def test_one_draw_buffer_per_thread(self, monkeypatch):
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", 7 * mc._trial_words(self.N))
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
        dists = self._dists()
        systems = self._systems(dists) + [
            PredictorVector(keys=dists.keys, values=dists.means - 0.2)
        ]
        cfg = MCConfig(trials=200, master_seed=42)
        serial = simulate_metric_shared(dists, systems, MetricKind.RMSE, cfg)
        roots = {}
        draw_block = mc._draw_block

        def recording(*args, **kwargs):
            draws = draw_block(*args, **kwargs)
            root = draws
            while root.base is not None:
                root = root.base
            # holding every root keeps its id from being reused by a later block
            roots.setdefault(threading.get_ident(), []).append(root)
            return draws

        monkeypatch.setattr(mc, "_draw_block", recording)
        threaded = simulate_metric_shared(dists, systems, MetricKind.RMSE, cfg, workers=2)
        assert sum(len(seen) for seen in roots.values()) == math.ceil(200 / 7)
        for seen in roots.values():
            assert len({id(root) for root in seen}) == 1
        assert np.array_equal(threaded, serial)

    def test_small_run_buffers_sized_by_tau(self):
        # tau = 3 trials of N = 5001 pairs: a full block would hold 52
        n, tau = 5001, 3
        dists = make_dists(np.full(n, 0.5))
        p = optimal_predictors(dists, MetricKind.RMSE)
        predictors = [p, PredictorVector(keys=p.keys, values=p.values + 0.1)]
        tracemalloc.start()
        try:
            simulate_metric_shared(
                dists, predictors, MetricKind.RMSE, MCConfig(trials=tau, master_seed=3)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < mc._BLOCK_ELEMENTS * 8 / 4


class TestZeroOffsetSystems:
    """A system whose predictions equal the pair means reduces straight from
    the draws; its rows keep the bits of the add-then-reduce arithmetic."""

    N = 37  # not a multiple of 4, so the draw block is a padded view

    def _reference(self, dists, offsets, metric, cfg, clip_bounds):
        delta = mc._draw_block(cfg.master_seed, 0, cfg.trials, self.N)
        delta = delta * np.sqrt(dists.variances)
        if clip_bounds is not None:
            np.clip(delta, clip_bounds[0] - dists.means, clip_bounds[1] - dists.means,
                    out=delta)
        resid = delta + offsets
        if metric is MetricKind.RMSE:
            return np.sqrt(np.mean(np.square(resid), axis=1))
        return np.mean(np.abs(resid), axis=1)

    @pytest.mark.parametrize("metric", [MetricKind.RMSE, MetricKind.MAE])
    @pytest.mark.parametrize("clip_bounds", [None, (1.0, 5.0)])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_match_one_system_runs(self, monkeypatch, metric, clip_bounds, workers):
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", 7 * mc._trial_words(self.N))
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
        dists = make_dists(
            np.linspace(0.2, 2.0, self.N), means=np.linspace(1.2, 4.8, self.N)
        )
        means = PredictorVector(keys=dists.keys, values=dists.means.copy())
        others = [
            PredictorVector(keys=dists.keys, values=dists.means + 0.3),
            PredictorVector(keys=dists.keys, values=dists.means - 0.2),
        ]
        cfg = MCConfig(trials=200, master_seed=42)
        zero = self._reference(dists, np.zeros(self.N), metric, cfg, clip_bounds)
        for position in range(3):
            systems = others[:position] + [means] + others[position:]
            shared = simulate_metric_shared(
                dists, systems, metric, cfg, workers=workers, clip_bounds=clip_bounds
            )
            for row, system in enumerate(systems):
                alone = simulate_metric_shared(
                    dists, [system], metric, cfg, workers=workers, clip_bounds=clip_bounds
                )
                assert np.array_equal(shared[row], alone[0])
            assert np.array_equal(shared[position], zero)

    # unclipped RMSE scores any number of systems from the draw block alone
    @pytest.mark.parametrize("systems, blocks", [(1, 1.5), (2, 2.5), (4, 1.5)])
    def test_residual_block_only_for_shared_draws(self, systems, blocks):
        n, tau = 5001, 520
        dists = make_dists(np.full(n, 0.5))
        p = optimal_predictors(dists, MetricKind.RMSE)
        predictors = [p] + [
            PredictorVector(keys=p.keys, values=p.values + 0.1 * k) for k in range(1, systems)
        ]
        tracemalloc.start()
        try:
            simulate_metric_shared(
                dists, predictors, MetricKind.RMSE, MCConfig(trials=tau, master_seed=3)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < blocks * mc._BLOCK_ELEMENTS * 8


class TestRmseExpansion:
    """Unclipped RMSE scores a system with offsets o from the draws' deviations
    d as sqrt(mean(d^2) + (2 d.o + o.o)/N), which the direct residual formula
    sqrt(mean((d + o)^2)) matches up to the rounding of those three terms."""

    SCALES = [0.0, 0.3, 0.0, -0.15, 0.7]

    def _case(self, n, tau, seed):
        dists = make_dists(np.linspace(0.2, 2.0, n), means=np.linspace(1.2, 4.8, n))
        alternating = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        systems = [
            PredictorVector(keys=dists.keys, values=dists.means - scale * alternating)
            for scale in self.SCALES
        ]
        cfg = MCConfig(trials=tau, master_seed=seed)
        values = simulate_metric_shared(dists, systems, MetricKind.RMSE, cfg)
        delta = mc._draw_block(seed, 0, tau, n) * np.sqrt(dists.variances)
        offsets = [dists.means - p.values for p in systems]
        return values, delta, offsets

    @staticmethod
    def _within_rounding(values, delta, offsets):
        """Assert the rounding bound of each system's values and return the
        direct ones.

        Each sum of N products carries at most about N*eps of its absolute
        terms, in both formulas, and every other step a few eps, so the two
        mean squares differ by at most (2N + 16)*eps*T with
        T = (sum d^2 + 2 sum |d o| + sum o^2)/N per trial; the square roots
        then differ by at most min(sqrt(B), B/(v + v')).
        """
        n = delta.shape[1]
        eps = np.finfo(np.float64).eps
        direct = np.empty_like(values)
        for row, o in enumerate(offsets):
            direct[row] = np.sqrt(np.mean(np.square(delta + o), axis=1))
            terms = (
                np.sum(delta**2, axis=1) + 2.0 * np.abs(delta) @ np.abs(o) + o @ o
            ) / n
            bound = (2 * n + 16) * eps * terms
            total = values[row] + direct[row]
            with np.errstate(divide="ignore", invalid="ignore"):
                allowed = np.minimum(
                    np.sqrt(bound), np.where(total > 0, bound / total, np.inf)
                )
            assert np.all(np.abs(values[row] - direct[row]) <= allowed)
        return direct

    @pytest.mark.parametrize("n", [1, 2, 500])
    def test_matches_direct_residuals(self, n):
        values, delta, offsets = self._case(n, 2000, 31)
        assert not np.isnan(values).any()
        direct = self._within_rounding(values, delta, offsets)
        for row, scale in enumerate(self.SCALES):
            if scale == 0.0:
                # zero-offset systems take no cross term: the same bits
                assert np.array_equal(values[row], direct[row])

    def test_orderings_match_direct_residuals(self):
        values, delta, offsets = self._case(500, 2000, 31)
        direct = self._within_rounding(values, delta, offsets)
        assert np.array_equal(
            np.argsort(values, axis=0, kind="stable"),
            np.argsort(direct, axis=0, kind="stable"),
        )

    def test_cancelling_prediction_stays_finite(self):
        # trial 0's rating lands on the prediction, so d + o is zero up to the
        # rounding of the prediction, and the expansion cancels
        seed, tau = 22, 64
        dists = make_dists([0.7], means=[3.3])
        delta = mc._draw_block(seed, 0, tau, 1) * np.sqrt(dists.variances)
        hit = PredictorVector(keys=dists.keys, values=dists.means + delta[0])
        offsets = [dists.means - hit.values]
        d, o = delta[0, 0], offsets[0][0]
        assert d * d + (2.0 * d * o + o * o) < 0.0  # unclamped, it goes negative
        values = simulate_metric_shared(
            dists, [optimal_predictors(dists, MetricKind.RMSE), hit], MetricKind.RMSE,
            MCConfig(trials=tau, master_seed=seed),
        )
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
        self._within_rounding(values[1:], delta, offsets)

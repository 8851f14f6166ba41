import dataclasses
import itertools
import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from magicbarrier import mc
from magicbarrier import (
    GaussianSummary,
    MCConfig,
    MetricKind,
    PredictorVector,
    optimal_predictors,
    rank_distribution,
    simulate_metric,
    simulate_metric_shared,
)

from conftest import make_dists
from oracles import block_draws, evaluate_metric_once

HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)
HALF_NORMAL_VAR = 1.0 - 2.0 / math.pi

# The mean checks of TestSimulate pool POOLED_SEEDS and allow Z_POOLED
# standard errors: 3.891 is the two-sided normal quantile of 1e-4, so a change
# of the MC streams makes each check fail by chance at most once in 10,000.
# Four seeds of tau trials halve the standard error of one, so the bound is
# 0.65 of a 3-SE bound on one seed: its power is at least that check's at
# every bias above 0.89 single-seed SE, below which the 3-SE check fires
# under 2% of the time.
Z_POOLED = 3.891
POOLED_SEEDS = (4, 5, 11, 17)


def pooled_values(dists, metric, tau, workers=1):
    """Metric values of the optimal predictor, tau trials per pooled seed."""
    p = optimal_predictors(dists, metric)
    return np.concatenate(
        [
            simulate_metric(
                dists, p, metric, MCConfig(trials=tau, master_seed=seed), workers
            ).values
            for seed in POOLED_SEEDS
        ]
    )


class TestMCConfig:
    def test_fields_are_the_stream_key(self):
        assert [f.name for f in dataclasses.fields(MCConfig)] == ["trials", "master_seed"]

    def test_default_bins(self):
        dists = make_dists([0.5])
        p = optimal_predictors(dists, MetricKind.RMSE)

        def bins(trials, **kwargs):
            cfg = MCConfig(trials=trials)
            return simulate_metric(dists, p, MetricKind.RMSE, cfg, **kwargs).bin_heights.size

        assert bins(100_000) == 317
        # ceil(sqrt(1e6)) = 1000, capped
        assert bins(1_000_000) == 512
        assert bins(100, bins=20) == 20
        # never one bin, which the explicit setting refuses too
        assert [bins(t) for t in (1, 2, 4, 5)] == [2, 2, 2, 3]

    def test_invalid(self):
        with pytest.raises(ValueError):
            MCConfig(trials=0)
        with pytest.raises(ValueError, match="bins must be >= 2"):
            simulate_metric(
                make_dists([0.5]), PredictorVector([("u0", "i")], [3.0]), MetricKind.RMSE,
                MCConfig(trials=10), bins=1,
            )
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
        values = pooled_values(dists, MetricKind.RMSE, tau)
        se = math.sqrt(HALF_NORMAL_VAR / values.size)
        assert values.mean() == pytest.approx(HALF_NORMAL_MEAN, abs=Z_POOLED * se)

    def test_homogeneous_1000_pairs_against_closed_form(self):
        n, s2, tau = 1000, 0.5, 100_000
        dists = make_dists(np.full(n, s2))
        values = pooled_values(dists, MetricKind.RMSE, tau, workers=2)
        approx_var = 2.5e-4
        se = math.sqrt(approx_var / values.size)

        # exact mean through the chi distribution: RMSE = sqrt(s2/n) * chi_n
        import mpmath

        exact = float(
            mpmath.sqrt(2 * s2 / n) * mpmath.gamma((n + 1) / 2) / mpmath.gamma(n / 2)
        )
        assert values.mean() == pytest.approx(exact, abs=Z_POOLED * se)

        # the first-order value sqrt(0.5) carries a truncation bias of the
        # size predicted by the second-order series term
        # sqrt(E[Z]) - V[Z] / (8 E[Z]^1.5); allow exactly that
        ez, vz = s2, 2.0 * s2 * s2 / n
        order2_shift = abs(math.sqrt(ez) - vz / (8.0 * ez**1.5) - math.sqrt(s2))
        assert values.mean() == pytest.approx(
            math.sqrt(s2), abs=Z_POOLED * se + order2_shift
        )

        assert values.var(ddof=1) == pytest.approx(approx_var, rel=0.10)

    def test_mae_single_pair(self):
        dists = make_dists([1.0])
        tau = 200_000
        values = pooled_values(dists, MetricKind.MAE, tau)
        se = math.sqrt(HALF_NORMAL_VAR / values.size)
        assert values.mean() == pytest.approx(HALF_NORMAL_MEAN, abs=Z_POOLED * se)

    def test_nonfinite_predictions_refused(self):
        dists = make_dists([0.5, 0.9])
        with pytest.raises(ValueError, match="values must be finite"):
            simulate_metric(
                dists, PredictorVector(dists.keys, [3.0, math.nan]), MetricKind.RMSE,
                MCConfig(trials=100, master_seed=1),
            )

    @pytest.mark.parametrize("size", [1e200, 1e154], ids=["square", "sum"])
    def test_overflowing_squared_offsets_refused(self, size):
        # 1e200 squares past float64; 1e154 squares to 1e308, and two of them
        # sum past it. Either way the far system's RMSE would be inf.
        dists = make_dists([0.5, 0.9])
        p = optimal_predictors(dists, MetricKind.RMSE)
        far = PredictorVector(dists.keys, [size, -size])
        cfg = MCConfig(trials=100, master_seed=1)
        message = "predictions 2 of 2 lie so far from the pair means"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for metric in MetricKind:
                with pytest.raises(ValueError, match=message):
                    simulate_metric_shared(dists, [p, far], metric, cfg)
                with pytest.raises(ValueError, match=message):
                    rank_distribution([p, far], dists, metric, cfg)


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
    """Each block of trials draws from its own SFC64 stream, seeded by the
    master seed with the block's first trial as spawn key, so values depend on
    (seed, trial, N) and the block size only: never on threads or tau."""

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

    def _run(self, metric, clip_bounds, workers=1, trials=200):
        dists = self._dists()
        return simulate_metric_shared(
            dists,
            self._systems(dists),
            metric,
            MCConfig(trials=trials, master_seed=42),
            workers=workers,
            clip_bounds=clip_bounds,
        )

    @pytest.mark.parametrize("metric", [MetricKind.RMSE, MetricKind.MAE])
    @pytest.mark.parametrize("clip_bounds", [None, (1.0, 5.0)])
    @pytest.mark.parametrize("trials_per_task", [1, 3, 37])
    def test_workers_and_tau_keep_values(
        self, monkeypatch, metric, clip_bounds, trials_per_task
    ):
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", trials_per_task * self.N)
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 3)
        serial = self._run(metric, clip_bounds)
        for workers in (2, 3):
            assert np.array_equal(self._run(metric, clip_bounds, workers=workers), serial)
        # 100 trials end inside a block of 3 or 37 trials: the short last
        # block draws a prefix of the full block's stream
        for workers in (1, 2):
            short = self._run(metric, clip_bounds, workers=workers, trials=100)
            assert np.array_equal(short, serial[:, :100])

    def test_blocks_draw_distinct_streams(self):
        # overlapping streams would repeat values; ziggurat normals take about
        # 2^61 equally likely values, so independent streams repeat one of
        # these 56,000 with a chance below 2^-30. Adjacent seeds must not
        # share a block's stream either.
        block = 200
        draws = np.concatenate(
            [
                mc._draw_block(seed, b * block, block, 35).ravel()
                for seed in (42, 43)
                for b in range(4)
            ]
        )
        assert np.unique(draws).size == draws.size

    def test_block_keys_are_unambiguous(self):
        # a flat SeedSequence([seed, k0]) hashes the 32-bit words of both
        # numbers as one list, so these two keys would give the same stream
        a = mc._draw_block(5, 7 * 2**32 + 3, 4, 8)
        b = mc._draw_block(3 * 2**32 + 5, 7, 4, 8)
        assert not np.array_equal(a, b)

    def test_pooled_block_draws_are_standard_normal(self):
        # three and a half default-sized blocks of N = 37 (not a multiple of 4)
        n = self.N
        block = mc._BLOCK_ELEMENTS // n
        tau = 3 * block + block // 2
        draws = block_draws(2024, tau, n)
        assert stats.kstest(draws.ravel(), "norm").pvalue > 0.01
        full = [draws[k0 : k0 + block].ravel() for k0 in range(0, 3 * block, block)]
        bound = 4.0 / math.sqrt(full[0].size)
        for a, b in itertools.combinations(full, 2):
            assert abs(np.corrcoef(a, b)[0, 1]) < bound

    def test_clipped_values_independent_of_workers(self, monkeypatch):
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", 7 * self.N)
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 3)
        serial = self._run(MetricKind.RMSE, (1.0, 5.0), workers=1)
        for workers in (2, 3):
            threaded = self._run(MetricKind.RMSE, (1.0, 5.0), workers=workers)
            assert np.array_equal(threaded, serial)

    def test_unclipped_rmse_values_independent_of_workers(self, monkeypatch):
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", 7 * self.N)
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
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", self.N)
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
        assert max(blocks) * n <= mc._BLOCK_ELEMENTS

    def test_one_draw_buffer_per_thread(self, monkeypatch):
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", 7 * self.N)
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

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_blocks_are_new_arrays_submitted_in_a_window(self, monkeypatch, workers):
        submitted = []

        class RecordingPool(mc.ThreadPoolExecutor):
            def submit(self, fn, *args):
                submitted.append(args)
                return super().submit(fn, *args)

        monkeypatch.setattr(mc, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", 7 * self.N)
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 3)
        dists = self._dists()
        systems = self._systems(dists)
        cfg = MCConfig(trials=200, master_seed=42)
        blocks = mc._metric_blocks(dists, systems, MetricKind.RMSE, cfg, workers)
        ahead = []
        values = []
        for block in blocks:
            ahead.append(len(submitted) - len(values))
            # never a view of a thread's reused buffers
            assert block.flags.owndata and block.shape == (3, min(7, 200 - 7 * len(values)))
            values.append(block)
        assert len(values) == math.ceil(200 / 7)
        assert max(ahead) <= (2 * workers if workers > 1 else 0)
        assert np.array_equal(
            np.concatenate(values, axis=1),
            simulate_metric_shared(dists, systems, MetricKind.RMSE, cfg),
        )

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
    """Every metric scores each system from its residuals: a row of a shared
    run has the bits of the residual formula on that system's offsets, and a
    system whose predictions equal the pair means reduces straight from the
    draws with those same bits."""

    N = 37

    def _reference(self, dists, offsets, metric, cfg, clip_bounds):
        delta = block_draws(cfg.master_seed, cfg.trials, self.N)
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
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", 7 * self.N)
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
        dists = make_dists(
            np.linspace(0.2, 2.0, self.N), means=np.linspace(1.2, 4.8, self.N)
        )
        cfg = MCConfig(trials=200, master_seed=42)
        means = PredictorVector(keys=dists.keys, values=dists.means.copy())
        # trial 0's ratings land on these predictions, so its residuals all
        # but cancel (exactly so unless clipped)
        trial0 = block_draws(cfg.master_seed, 1, self.N)[0] * np.sqrt(dists.variances)
        others = [
            PredictorVector(keys=dists.keys, values=dists.means + 0.3),
            PredictorVector(keys=dists.keys, values=dists.means - 0.2),
            PredictorVector(keys=dists.keys, values=dists.means + trial0),
        ]
        for position in range(len(others) + 1):
            systems = others[:position] + [means] + others[position:]
            shared = simulate_metric_shared(
                dists, systems, metric, cfg, workers=workers, clip_bounds=clip_bounds
            )
            assert np.all(np.isfinite(shared)) and np.all(shared >= 0.0)
            for row, system in enumerate(systems):
                alone = simulate_metric_shared(
                    dists, [system], metric, cfg, workers=workers, clip_bounds=clip_bounds
                )
                assert np.array_equal(shared[row], alone[0])
                reference = self._reference(
                    dists, dists.means - system.values, metric, cfg, clip_bounds
                )
                assert np.array_equal(shared[row], reference)

    # one system scores in the draw buffer; more add one residual buffer
    @pytest.mark.parametrize("systems, blocks", [(1, 1.5), (2, 2.5), (4, 2.5)])
    def test_residual_block_only_for_shared_draws(self, systems, blocks):
        n, tau = 5001, 520
        dists = make_dists(np.full(n, 0.5))
        for metric in (MetricKind.RMSE, MetricKind.MAE):
            p = optimal_predictors(dists, metric)
            predictors = [p] + [
                PredictorVector(keys=p.keys, values=p.values + 0.1 * k)
                for k in range(1, systems)
            ]
            tracemalloc.start()
            try:
                simulate_metric_shared(
                    dists, predictors, metric, MCConfig(trials=tau, master_seed=3)
                )
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < blocks * mc._BLOCK_ELEMENTS * 8, metric


class TestRmseExpansion:
    """Unclipped RMSE scored as sqrt(mean(d^2) + (2 d.o + o.o)/N) can go
    negative under the root when d + o cancels; scoring from the residuals
    d + o must keep such a system finite and non-negative."""

    def test_cancelling_prediction_stays_finite(self):
        # trial 0's rating lands on the prediction, so d + o is zero up to the
        # rounding of the prediction; the test takes the first seed whose draw
        # makes the expansion's unclamped sum negative
        tau = 64
        dists = make_dists([0.7], means=[3.3])
        for seed in range(200):
            delta = block_draws(seed, tau, 1) * np.sqrt(dists.variances)
            hit = PredictorVector(keys=dists.keys, values=dists.means + delta[0])
            offsets = dists.means - hit.values
            d, o = delta[0, 0], offsets[0]
            if d * d + (2.0 * d * o + o * o) < 0.0:
                break
        else:
            pytest.fail("no seed below 200 makes the unclamped expansion negative")
        values = simulate_metric_shared(
            dists, [optimal_predictors(dists, MetricKind.RMSE), hit], MetricKind.RMSE,
            MCConfig(trials=tau, master_seed=seed),
        )
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
        direct = np.sqrt(np.mean(np.square(delta + offsets), axis=1))
        assert np.array_equal(values[1], direct)


def record_draws(monkeypatch):
    """The (k0, n_trials, n_pairs) of every ``mc._draw_block`` call, in order."""
    drawn = []
    draw_block = mc._draw_block

    def recording(master_seed, k0, n_trials, n_pairs, **kwargs):
        drawn.append((k0, n_trials, n_pairs))
        return draw_block(master_seed, k0, n_trials, n_pairs, **kwargs)

    monkeypatch.setattr(mc, "_draw_block", recording)
    return drawn


class TestRmseScoreBlocks:
    """rank's RMSE path scores systems by 2 d.o + o.o from r normals per
    trial, r the rank of the distinct offset rows (the nonzero pivots of
    their Gram-Schmidt factor), mapped through that factor."""

    def test_gram_factor_of_dependent_rows(self):
        a = np.random.default_rng(9).normal(size=(2, 40))
        rows = np.array([a[0], a[1], 2.0 * a[0], a[0] - 3.0 * a[1], np.zeros(40)])
        factor = mc._gram_factor(rows)
        assert np.array_equal(factor, np.triu(factor))
        assert np.all(factor[2:] == 0.0)
        assert np.all(np.diag(factor)[:2] > 0.0)
        gram = np.einsum("ij,kj->ik", rows, rows)
        assert np.allclose(np.einsum("ji,jk->ik", factor, factor), gram, rtol=1e-12, atol=1e-12)

    def test_blocks_are_a_prefix_of_longer_runs(self, monkeypatch):
        # K = 3: blocks of 2**14 // 3 = 5461 trials, so 3000 trials end inside
        # the first block of the longer run; systems 1 and 2 are identical,
        # so a trial draws one normal, not one per pair
        drawn = record_draws(monkeypatch)
        dists = make_dists(np.linspace(0.3, 1.5, 20))
        o = np.random.default_rng(2).normal(0.0, 0.2, 20)
        systems = [
            PredictorVector(keys=dists.keys, values=dists.means.copy()),
            PredictorVector(keys=dists.keys, values=dists.means + o),
            PredictorVector(keys=dists.keys, values=dists.means + o),
        ]

        def scores(tau):
            cfg = MCConfig(trials=tau, master_seed=7)
            return list(mc._rmse_score_blocks(dists, systems, cfg))

        long = scores(12_000)
        assert [b.shape for b in long] == [(3, 5461), (3, 5461), (3, 1078)]
        assert drawn == [(0, 5461, 1), (5461, 5461, 1), (10922, 1078, 1)]
        values = np.concatenate(long, axis=1)
        assert np.array_equal(np.concatenate(scores(3000), axis=1), values[:, :3000])
        assert np.all(values[0] == 0.0)
        assert np.array_equal(values[1], values[2])
        # 2 d.o + o.o is Gaussian with mean o.o and variance 4 sum(s2 o^2)
        mean, var = float(o @ o), 4.0 * float(np.sum(dists.variances * o * o))
        assert abs(values[1].mean() - mean) <= 3.891 * math.sqrt(var / values.shape[1])

    @pytest.mark.parametrize(
        "weights, rank",
        [
            ([(1.0, 0.0), (2.0, 0.0), (-1.0, 0.0)], 1),
            ([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)], 2),
        ],
        ids=["o-2o-minus-o", "o-p-o+p"],
    )
    def test_one_normal_per_pivot(self, monkeypatch, weights, rank):
        # offsets a*o + b*p span `rank` directions: a trial draws that many
        # normals, not one per distinct row, and the blocks stay prefixes
        drawn = record_draws(monkeypatch)
        dists = make_dists(np.linspace(0.3, 1.5, 20))
        o, p = np.random.default_rng(4).normal(0.0, 0.2, (2, 20))
        systems = [
            PredictorVector(keys=dists.keys, values=dists.means + a * o + b * p)
            for a, b in weights
        ]

        def scores(tau):
            cfg = MCConfig(trials=tau, master_seed=7)
            return np.concatenate(list(mc._rmse_score_blocks(dists, systems, cfg)), axis=1)

        values = scores(12_000)
        assert drawn == [(0, 5461, rank), (5461, 5461, rank), (10922, 1078, rank)]
        assert np.array_equal(scores(3000), values[:, :3000])
        assert drawn[3:] == [(0, 3000, rank)]

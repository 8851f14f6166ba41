import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magicbarrier import (
    DegenerateInputError,
    MCConfig,
    MetricKind,
    PredictorVector,
    mae_summary_from_offsets,
    magic_barrier_rmse,
    rmse_summary_from_offsets,
    simulate_metric,
)
from magicbarrier.mc import optimal_predictors

from conftest import make_dists


class TestMagicBarrierRmse:
    def test_single_pair(self):
        s = magic_barrier_rmse([1.0])
        assert (s.mean, s.variance) == (1.0, 0.5)

    def test_homogeneous_1000(self):
        s = magic_barrier_rmse(np.full(1000, 0.5))
        assert s.mean == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert s.variance == pytest.approx(2.5e-4, rel=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInputError, match="degenerate barrier"):
            magic_barrier_rmse([0.0, 0.0])
        with pytest.raises(DegenerateInputError):
            magic_barrier_rmse([])
        with pytest.raises(ValueError):
            magic_barrier_rmse([-0.1, 0.5])

    @given(data=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_bits_of_zero_offsets(self, data):
        """The barrier's own sums give the bits of the per-pair route at
        zero offsets."""
        arr = np.asarray(data)
        assume(arr.any())
        assert magic_barrier_rmse(arr) == rmse_summary_from_offsets(arr, np.zeros_like(arr))

    def test_overflowing_sums(self):
        with pytest.raises(OverflowError, match="overflow float64"):
            magic_barrier_rmse([0.5, 1e200])
        with pytest.raises(OverflowError, match="overflow float64"):
            rmse_summary_from_offsets([0.5, 0.0], [0.0, 1e200])

    def test_memory_is_one_squared_copy(self):
        """The barrier squares the variances once and allocates no zero
        offsets: its peak stays below two float64 arrays of N."""
        variances = np.random.default_rng(0).exponential(1 / 2.11, 10**6)
        tracemalloc.start()
        try:
            magic_barrier_rmse(variances)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * variances.nbytes, peak / variances.nbytes

    @given(
        data=st.lists(st.floats(0.01, 4.0), min_size=1, max_size=30),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariant(self, data, seed):
        arr = np.asarray(data)
        rng = np.random.default_rng(seed)
        shuffled = rng.permutation(arr)
        a, b = magic_barrier_rmse(arr), magic_barrier_rmse(shuffled)
        assert a.mean == pytest.approx(b.mean, rel=1e-12)
        assert a.variance == pytest.approx(b.variance, rel=1e-12)

    @given(data=st.lists(st.floats(0.01, 4.0), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_replication_keeps_mean_halves_variance(self, data):
        arr = np.asarray(data)
        single = magic_barrier_rmse(arr)
        double = magic_barrier_rmse(np.concatenate([arr, arr]))
        assert double.mean == pytest.approx(single.mean, rel=1e-12)
        assert double.variance == pytest.approx(single.variance / 2, rel=1e-12)

    @given(c=st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_scaling_covariance(self, c):
        arr = np.array([0.3, 0.9, 1.7, 0.16])
        base = magic_barrier_rmse(arr)
        scaled = magic_barrier_rmse(arr * c * c)  # sigma -> c sigma
        assert scaled.mean == pytest.approx(c * base.mean, rel=1e-12)
        assert scaled.variance == pytest.approx(c * c * base.variance, rel=1e-12)


class TestRmseDistribution:
    def test_zero_offsets_reduce_to_barrier(self):
        variances = np.array([0.3, 1.4, 0.9, 2.2])
        means = np.array([1.0, 2.0, 3.0, 4.0])
        p = optimal_predictors(make_dists(variances, means=means), MetricKind.RMSE)
        with_offsets = rmse_summary_from_offsets(variances, means - p.values)
        barrier = magic_barrier_rmse(variances)
        assert with_offsets.mean == pytest.approx(barrier.mean, rel=1e-12)
        assert with_offsets.variance == pytest.approx(barrier.variance, rel=1e-12)

    def test_deterministic_residual(self):
        # variance 0, mean 3, prediction 2
        s = rmse_summary_from_offsets([0.0], [3.0 - 2.0])
        assert (s.mean, s.variance) == (1.0, 0.0)

    def test_homogeneous_biased_system(self):
        # N=500, s2=0.4, offset 0.2 per pair:
        # E[Y] = 0.44, V[Y] = 2*0.16 + 4*0.04*0.4 = 0.384
        # mean = sqrt(0.44), variance = (0.384/500) / (4*0.44)
        s = rmse_summary_from_offsets(np.full(500, 0.4), np.full(500, 0.2))
        assert s.mean == pytest.approx(math.sqrt(0.44), rel=1e-12)
        assert s.variance == pytest.approx(0.384 / 500 / (4 * 0.44), rel=1e-12)
        assert s.variance == pytest.approx(4.3636e-4, rel=1e-4)

    def test_homogeneous_biased_system_against_mc(self):
        n, s2, d, tau = 500, 0.4, 0.2, 100_000
        closed = rmse_summary_from_offsets(np.full(n, s2), np.full(n, d))
        means = np.full(n, 3.0)
        dists = make_dists(np.full(n, s2), means=means)
        p = PredictorVector(
            keys=dists.keys, values=means - d
        )
        mc = simulate_metric(dists, p, MetricKind.RMSE, MCConfig(trials=tau, master_seed=17))
        se = math.sqrt(closed.variance / tau)
        # the first-order mean carries the truncation bias quantified by the
        # second-order series term sqrt(E[Z]) - V[Z] / (8 E[Z]^1.5); grant
        # exactly that much slack
        ez = s2 + d * d
        vz = (2.0 * s2 * s2 + 4.0 * d * d * s2) / n
        order2_shift = abs(math.sqrt(ez) - vz / (8.0 * ez**1.5) - closed.mean)
        assert mc.summary.mean == pytest.approx(closed.mean, abs=3 * se + order2_shift)
        assert mc.summary.variance == pytest.approx(closed.variance, rel=0.05)

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            rmse_summary_from_offsets([0.0, 0.0], [0.0, 0.0])


class TestMaeDistribution:
    def test_half_normal_single_pair(self):
        s = mae_summary_from_offsets([1.0])
        assert s.mean == pytest.approx(math.sqrt(2 / math.pi), rel=1e-12)
        assert s.variance == pytest.approx(1 - 2 / math.pi, rel=1e-12)

    def test_pure_offset(self):
        s = mae_summary_from_offsets([0.0], [0.5])
        assert (s.mean, s.variance) == (0.5, 0.0)

    @pytest.mark.parametrize("n", [1, 7, 1000, 10**6])
    def test_bits_of_zero_offsets(self, n):
        """The barrier's direct moments give the bits of the folded-normal
        route at zero offsets, vanishing variances included."""
        variances = np.random.default_rng(n).exponential(1 / 2.11, n)
        variances[4::5] = 0.0
        assert mae_summary_from_offsets(variances) == mae_summary_from_offsets(
            variances, np.zeros(n)
        )

    def test_memory_without_zero_offsets(self):
        """The barrier allocates no zero offsets and no per-pair folded-normal
        temporaries: its peak stays below three float64 arrays of N."""
        variances = np.random.default_rng(0).exponential(1 / 2.11, 10**6)
        tracemalloc.start()
        try:
            mae_summary_from_offsets(variances)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * variances.nbytes, peak / variances.nbytes

    def test_negative_offsets_fold_symmetrically(self):
        plus = mae_summary_from_offsets([0.7, 1.1], [0.4, 0.2])
        minus = mae_summary_from_offsets([0.7, 1.1], [-0.4, -0.2])
        assert plus.mean == pytest.approx(minus.mean, rel=1e-12)
        assert plus.variance == pytest.approx(minus.variance, rel=1e-12)

    @given(
        d=st.floats(-3, 3),
        s2=st.floats(0.01, 4.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_folded_moment_bounds(self, d, s2):
        s = mae_summary_from_offsets([s2], [d])
        # E|X| is at least max(|d|, sigma*sqrt(2/pi)) and at most |d| + sigma*sqrt(2/pi)
        sigma = math.sqrt(s2)
        assert s.mean >= max(abs(d), sigma * math.sqrt(2 / math.pi)) - 1e-12
        assert s.mean <= abs(d) + sigma * math.sqrt(2 / math.pi) + 1e-12
        assert s.variance >= 0.0

    def test_against_mc_on_mixed_pairs(self):
        rng = np.random.default_rng(213)
        variances = rng.exponential(1 / 2.11, size=213)
        means = rng.uniform(1, 5, size=213)
        dists = make_dists(variances, means=means)
        p = optimal_predictors(dists, MetricKind.MAE)
        closed = mae_summary_from_offsets(variances, means - p.values)
        tau = 100_000
        mc = simulate_metric(dists, p, MetricKind.MAE, MCConfig(trials=tau, master_seed=23))
        se = math.sqrt(closed.variance / tau)
        assert mc.summary.mean == pytest.approx(closed.mean, abs=3 * se)
        assert mc.summary.variance == pytest.approx(closed.variance, rel=0.05)


class TestAccumulation:
    def test_pairwise_sum_matches_exact_fsum(self):
        rng = np.random.default_rng(100)
        variances = rng.exponential(0.5, size=100_000)
        s = magic_barrier_rmse(variances)
        exact_mean = math.sqrt(math.fsum(variances.tolist()) / variances.size)
        exact_var = math.fsum((variances**2).tolist()) / (
            2 * variances.size * math.fsum(variances.tolist())
        )
        assert s.mean == pytest.approx(exact_mean, rel=1e-12)
        assert s.variance == pytest.approx(exact_var, rel=1e-12)

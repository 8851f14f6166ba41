import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicbarrier import (
    DegenerateInputError,
    GaussianSummary,
    PairTable,
    PredictorVector,
    ScaleSpec,
    gaussian_cdf,
    variance_bounds,
)

from oracles import enumerated_variance_bounds, gaussian_pdf


def brute_force_bounds(scale):
    """Independent oracle: enumerate every multiset and take extremes."""
    best_min, best_max = math.inf, 0.0
    for m in itertools.combinations_with_replacement(
        range(scale.min_category, scale.max_category + 1), scale.num_trials
    ):
        v = float(np.var(np.asarray(m, dtype=float)))
        if 0.0 < v < best_min:
            best_min = v
        best_max = max(best_max, v)
    return best_min, best_max


class TestScaleSpec:
    def test_valid(self):
        s = ScaleSpec(1, 5, 5)
        assert (s.min_category, s.max_category, s.num_trials) == (1, 5, 5)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            ScaleSpec(5, 1, 5)
        with pytest.raises(ValueError):
            ScaleSpec(3, 3, 5)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            ScaleSpec(1, 5, 0)

    @pytest.mark.parametrize("field", ["min_category", "max_category", "num_trials"])
    @pytest.mark.parametrize("value", [5.5, 5.0, True, "5", None])
    def test_fields_must_be_integers(self, field, value):
        fields = {"min_category": 0, "max_category": 6, "num_trials": 5, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            ScaleSpec(**fields)


class TestVarianceBounds:
    def test_five_star_five_trials(self, scale_5star):
        low, high = variance_bounds(scale_5star)
        # min from {1,1,1,1,2}; max from the 3/2 split of the extremes
        assert low == pytest.approx(0.16, abs=1e-12)
        assert high == pytest.approx(3.84, abs=1e-12)

    def test_two_trials(self):
        low, high = variance_bounds(ScaleSpec(1, 5, 2))
        assert (low, high) == pytest.approx((0.25, 4.0))

    def test_single_trial_errors(self):
        with pytest.raises(DegenerateInputError, match="no nonzero variance"):
            variance_bounds(ScaleSpec(1, 5, 1))

    @pytest.mark.parametrize("trials", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("lo,hi", [(1, 5), (0, 10), (1, 3)])
    def test_max_is_extreme_split(self, lo, hi, trials):
        scale = ScaleSpec(lo, hi, trials)
        _, high = variance_bounds(scale)
        k = trials // 2
        split = [lo] * k + [hi] * (trials - k)
        assert high == pytest.approx(float(np.var(np.asarray(split, dtype=float))))

    @pytest.mark.parametrize("trials", [2, 3, 4, 5])
    @pytest.mark.parametrize("lo,hi", [(1, 5), (1, 4), (-2, 2)])
    def test_matches_enumeration_oracle(self, lo, hi, trials):
        scale = ScaleSpec(lo, hi, trials)
        assert variance_bounds(scale) == pytest.approx(brute_force_bounds(scale))

    @pytest.mark.parametrize("hi", range(5, 11))
    def test_bounds_are_the_correctly_rounded_closed_forms(self, hi):
        # the exact rationals, rounded once, and within float rounding of an
        # enumeration of every multiset
        for trials in range(2, 13):
            scale = ScaleSpec(1, hi, trials)
            k = trials // 2
            exact = (
                float(Fraction(trials - 1, trials**2)),
                float(Fraction(k * (trials - k) * (hi - 1) ** 2, trials**2)),
            )
            assert variance_bounds(scale) == exact
            assert exact == pytest.approx(enumerated_variance_bounds(scale), rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "scale, message",
        [
            (ScaleSpec(0, 10**200, 5), "variance of 5 ratings in .* overflows float64"),
            (ScaleSpec(1, 5, 10**400), "smallest nonzero variance of .* underflows float64"),
        ],
        ids=["overflow", "underflow"],
    )
    def test_bounds_past_float64_are_refused(self, scale, message):
        with pytest.raises(ValueError, match=message):
            variance_bounds(scale)

    def test_memory_stays_small_on_a_wide_scale(self):
        # a width of 10**5 has 2 * 10**5 extremal one-off multisets: held as
        # lists they peaked near 26 MiB
        tracemalloc.start()
        try:
            low, high = variance_bounds(ScaleSpec(0, 10**5, 5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert low == pytest.approx(0.16) and high == pytest.approx(0.24e10)
        assert peak < 1 << 20


class TestGaussianCdf:
    def test_standard_normal_center(self):
        assert gaussian_cdf(GaussianSummary(0.0, 1.0), 0.0) == 0.5

    def test_standard_normal_quantile(self):
        assert gaussian_cdf(GaussianSummary(0.0, 1.0), 1.96) == pytest.approx(
            0.9750, abs=1e-4
        )

    def test_symmetry_about_mean(self):
        assert gaussian_cdf(GaussianSummary(2.0, 4.0), 2.0) == 0.5

    def test_against_high_precision_erf_oracle(self):
        import mpmath

        g = GaussianSummary(0.3, 2.7)
        for x in np.linspace(-6.0, 7.0, 23):
            exact = float(mpmath.ncdf((x - g.mean) / math.sqrt(g.variance)))
            assert abs(gaussian_cdf(g, float(x)) - exact) <= 1e-12

    def test_zero_variance_step(self):
        g = GaussianSummary(1.5, 0.0)
        assert gaussian_cdf(g, 1.4999) == 0.0
        assert gaussian_cdf(g, 1.5) == 1.0
        assert gaussian_cdf(g, 2.0) == 1.0

    def test_vectorized_matches_scalar(self):
        g = GaussianSummary(-1.0, 0.5)
        xs = np.linspace(-4, 2, 11)
        vec = gaussian_cdf(g, xs)
        assert vec == pytest.approx([gaussian_cdf(g, float(x)) for x in xs])

    @given(
        mean=st.floats(-10, 10),
        variance=st.floats(1e-6, 100),
        a=st.floats(-30, 30),
        b=st.floats(-30, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, mean, variance, a, b):
        g = GaussianSummary(mean, variance)
        lo, hi = sorted((a, b))
        assert gaussian_cdf(g, lo) <= gaussian_cdf(g, hi)


class TestGaussianDensity:
    @pytest.mark.parametrize("mean,variance", [(0.0, 1.0), (0.73, 0.003), (-4.0, 25.0)])
    def test_integrates_to_one(self, mean, variance):
        g = GaussianSummary(mean, variance)
        x = np.linspace(mean - 8 * g.std, mean + 8 * g.std, 40001)
        assert np.trapezoid(gaussian_pdf(g, x), x) == pytest.approx(1.0, abs=1e-6)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateInputError):
            gaussian_pdf(GaussianSummary(0.0, 0.0), 0.0)


class TestDomainTypes:
    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            PairTable([("u", "i")], [3.0], [-0.1])
        with pytest.raises(ValueError):
            GaussianSummary(0.0, -1e-9)

    @pytest.mark.parametrize(
        "keys, means, variances, message",
        [
            ([("u", "i")], [3.0, 4.0], [0.5], "equal length"),
            ([("u", "i")], [math.nan], [0.5], "means must be finite"),
            ([("u", "i")], [3.0], [math.inf], "variances must be finite"),
            ([("u", "i"), ("u", "j"), ("u", "i")], [3.0] * 3, [0.5] * 3,
             r"duplicate pair \('u', 'i'\)"),
        ],
        ids=["length", "mean", "variance", "duplicate"],
    )
    def test_pair_table_validation(self, keys, means, variances, message):
        with pytest.raises(ValueError, match=message):
            PairTable(keys, means, variances)

    def test_pair_table_columns_are_read_only_copies(self):
        means = np.array([1.0, 2.0])
        table = PairTable([("u1", "i"), ("u2", "i")], means, [0.5, 0.0])
        means[0] = 9.0
        assert table.means.tolist() == [1.0, 2.0]
        assert not table.means.flags.writeable
        assert not table.variances.flags.writeable

    def test_predictor_alignment(self):
        dists = PairTable([("u1", "i1"), ("u2", "i1")], [1.0, 2.0], [0.5, 0.5])
        good = PredictorVector(keys=(("u1", "i1"), ("u2", "i1")), values=(1.0, 2.0))
        good.check_aligned(dists)
        swapped = PredictorVector(keys=(("u2", "i1"), ("u1", "i1")), values=(2.0, 1.0))
        with pytest.raises(ValueError, match="mismatch at index 0"):
            swapped.check_aligned(dists)
        renamed = PredictorVector(keys=(("u1", "i1"), ("u3", "i1")), values=(1.0, 2.0))
        with pytest.raises(ValueError, match="mismatch at index 1"):
            renamed.check_aligned(dists)
        short = PredictorVector(keys=(("u1", "i1"),), values=(1.0,))
        with pytest.raises(ValueError, match="length"):
            short.check_aligned(dists)

    def test_predictor_length_consistency(self):
        with pytest.raises(ValueError):
            PredictorVector(keys=(("u", "i"),), values=(1.0, 2.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_predictor_values_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="values must be finite"):
            PredictorVector(keys=(("u1", "i"), ("u2", "i")), values=(3.0, bad))

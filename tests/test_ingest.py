import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from magicbarrier import (
    DataFormatError,
    DegenerateInputError,
    ExponentialFit,
    PairTable,
    ScaleSpec,
    filter_nonvanishing,
    fit_exponential,
    fit_pair_gaussians,
    ks_normality_test,
    parse_tensor,
    sample_variances,
)
from magicbarrier.ingest import (
    ks_test_slices,
    nonzero_variance_fraction_by_item,
    parse_variances,
)

from conftest import make_tensor_csv, synthetic_study_tensor
from oracles import serialize_tensor


class TestParseTensor:
    def test_full_study_shape(self, scale_5star):
        # 67 users x 5 items x 5 trials = 1675 records
        text = synthetic_study_tensor(seed=7, users=67, items=5, trials=5)
        tensor = parse_tensor(text, scale_5star)
        assert len(tensor) == 1675
        assert len(tensor.pair_slices()) == 335

    def test_empty_body_is_valid(self, scale_5star):
        tensor = parse_tensor("user,item,trial,rating\n", scale_5star)
        assert len(tensor) == 0

    def test_rating_out_of_scale(self, scale_5star):
        text = "user,item,trial,rating\nu1,i1,1,7\n"
        with pytest.raises(DataFormatError, match="rating out of scale"):
            parse_tensor(text, scale_5star)

    def test_duplicate_triple_named(self, scale_5star):
        text = "user,item,trial,rating\nu1,i1,1,3\nu1,i1,1,4\n"
        with pytest.raises(DataFormatError, match=r"duplicate triple.*u1.*i1.*1"):
            parse_tensor(text, scale_5star)

    def test_malformed_line_number(self, scale_5star):
        text = "user,item,trial,rating\nu1,i1,1,3\nu1,i1,two,4\n"
        with pytest.raises(DataFormatError, match="line 3"):
            parse_tensor(text, scale_5star)

    def test_trial_index_bounds(self, scale_5star):
        text = "user,item,trial,rating\nu1,i1,6,3\n"
        with pytest.raises(DataFormatError, match="trial index"):
            parse_tensor(text, scale_5star)

    def test_bad_header(self, scale_5star):
        with pytest.raises(DataFormatError, match="line 1"):
            parse_tensor("usr,itm,t,r\nu1,i1,1,3\n", scale_5star)

    def test_crlf_accepted(self, scale_5star):
        text = "user,item,trial,rating\r\nu1,i1,1,3\r\nu1,i1,2,4\r\n"
        tensor = parse_tensor(text, scale_5star)
        assert tensor.ratings.tolist() == [3, 4]

    def test_roundtrip_identity(self, scale_5star):
        text = synthetic_study_tensor(seed=11, users=8, items=3)
        tensor = parse_tensor(text, scale_5star)
        again = parse_tensor(serialize_tensor(tensor), scale_5star)
        assert again.pair_keys == tensor.pair_keys
        for column in ("codes", "trials", "ratings"):
            assert np.array_equal(getattr(again, column), getattr(tensor, column))

    def test_pair_codes_follow_first_appearance(self, scale_5star):
        text = (
            "user,item,trial,rating\n"
            "u2,i1,1,3\nu1,i1,2,4\nu2,i1,2,5\nu1,i2,1,1\nu1,i1,1,2\n"
        )
        tensor = parse_tensor(text, scale_5star)
        assert tensor.pair_keys == (("u2", "i1"), ("u1", "i1"), ("u1", "i2"))
        assert tensor.codes.tolist() == [0, 1, 0, 2, 1]
        assert [s.tolist() for s in tensor.pair_slices()] == [[3, 5], [4, 2], [1]]


class TestFitPairGaussians:
    def test_known_slices(self, scale_5star):
        text = make_tensor_csv(
            {
                ("u1", "i1"): [1, 1, 1, 1, 2],
                ("u2", "i1"): [3, 3, 3, 3, 3],
                ("u3", "i1"): [1, 1, 1, 5, 5],
            }
        )
        fits = fit_pair_gaussians(parse_tensor(text, scale_5star))
        assert fits.keys == (("u1", "i1"), ("u2", "i1"), ("u3", "i1"))
        assert fits.means == pytest.approx([1.2, 3.0, 2.6])
        assert fits.variances == pytest.approx([0.16, 0.0, 3.84])
        assert fits.variances[1] == 0.0

    def test_blocks_match_per_slice_bits(self):
        # interleaved slices of 1 to 12 ratings: each row of the length-grouped
        # reduction must equal mean() and var() of its slice alone
        rng = np.random.default_rng(5)
        slices = {(f"u{k}", "i"): rng.integers(1, 6, 1 + k % 12).tolist()
                  for k in range(120)}
        lines = ["user,item,trial,rating"]
        for t in range(12):
            lines.extend(f"{u},{i},{t + 1},{r[t]}" for (u, i), r in slices.items()
                         if t < len(r))
        fits = fit_pair_gaussians(parse_tensor("\n".join(lines), ScaleSpec(1, 5, 12)))
        for row, ratings in enumerate(slices.values()):
            arr = np.asarray(ratings, dtype=np.float64)
            assert fits.means[row] == arr.mean() and fits.variances[row] == arr.var()

    def test_empty_tensor_rejected(self, scale_5star):
        tensor = parse_tensor("user,item,trial,rating\n", scale_5star)
        with pytest.raises(DegenerateInputError):
            fit_pair_gaussians(tensor)

    @given(shift=st.integers(-2, 2))
    @settings(max_examples=10, deadline=None)
    def test_constant_shift_moves_means_only(self, shift):
        scale = ScaleSpec(1 - 2, 5 + 2, 5)
        base = {("u1", "i1"): [1, 2, 1, 3, 1], ("u2", "i2"): [4, 4, 5, 4, 4]}
        shifted = {k: [r + shift for r in v] for k, v in base.items()}
        fits0 = fit_pair_gaussians(parse_tensor(make_tensor_csv(base), scale))
        fits1 = fit_pair_gaussians(parse_tensor(make_tensor_csv(shifted), scale))
        assert fits1.means == pytest.approx(fits0.means + shift)
        assert fits1.variances == pytest.approx(fits0.variances)


class TestFilterNonvanishing:
    def test_mixed_list_keeps_order(self):
        from conftest import make_dists

        dists = make_dists([0.3, 0.0, 1.2, 0.0, 0.5, 0.0, 2.0, 0.9, 0.0, 0.1])
        kept = filter_nonvanishing(dists)
        assert len(kept) == 6
        assert [user for user, _ in kept.keys] == ["u0", "u2", "u4", "u6", "u7", "u9"]

    def test_all_constant(self):
        from conftest import make_dists

        assert len(filter_nonvanishing(make_dists([0.0, 0.0]))) == 0

    def test_item_fractions(self):
        dists = PairTable(
            [("u1", "a"), ("u2", "a"), ("u1", "b"), ("u2", "b")],
            [3.0] * 4,
            [0.5, 0.0, 1.0, 1.0],
        )
        assert nonzero_variance_fraction_by_item(dists) == {"a": 0.5, "b": 1.0}


class TestKSNormality:
    def test_known_sup_distance(self):
        # points at the 10/30/50/70/90% standard-normal quantiles:
        # the empirical CDF brackets each reference value by exactly 0.1
        sample = [-1.2816, -0.5244, 0.0, 0.5244, 1.2816]
        result = ks_normality_test(sample, 0.0, 1.0)
        assert result.statistic == pytest.approx(0.1, abs=1e-3)
        assert not result.rejected

    def test_statistic_matches_scipy(self):
        rng = np.random.default_rng(5)
        sample = rng.normal(2.0, 1.5, size=40)
        ours = ks_normality_test(sample, 2.0, 1.5)
        ref = stats.kstest(sample, "norm", args=(2.0, 1.5))
        assert ours.statistic == pytest.approx(ref.statistic, abs=1e-12)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=0.02)

    def test_quantile_sample_not_rejected(self):
        n = 20
        sample = stats.norm.ppf((np.arange(1, n + 1)) / (n + 1))
        result = ks_normality_test(sample, 0.0, 1.0, alpha=0.05)
        assert not result.rejected

    @given(
        scale=st.floats(0.1, 10),
        shift=st.floats(-5, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_affine_invariance(self, scale, shift):
        rng = np.random.default_rng(17)
        sample = rng.normal(1.0, 2.0, size=12)
        base = ks_normality_test(sample, 1.0, 2.0)
        moved = ks_normality_test(sample * scale + shift, scale + shift, 2.0 * scale)
        assert moved.statistic == pytest.approx(base.statistic, rel=1e-9)

    def test_degenerate_sigma_rejected(self):
        with pytest.raises(DegenerateInputError, match="degenerate reference"):
            ks_normality_test([1.0, 2.0], 1.5, 0.0)

    def test_too_small_sample(self):
        with pytest.raises(ValueError):
            ks_normality_test([1.0], 1.0, 1.0)

    def test_slice_tally_tests_each_nonconstant_slice(self):
        # pair (u2, i1) is constant; (u1, i1) holds its records apart
        text = make_tensor_csv(
            {("u1", "i1"): [1, 5, 1, 5, 3], ("u2", "i1"): [4] * 5, ("u1", "i2"): [2, 3]}
        )
        tensor = parse_tensor(text, ScaleSpec(1, 5, 5))
        pairs = fit_pair_gaussians(tensor)
        tested, rejected = ks_test_slices(tensor, pairs, alpha=0.5)
        expected = [
            ks_normality_test(sample, mean, np.sqrt(variance), alpha=0.5).rejected
            for sample, mean, variance in zip(
                tensor.pair_slices(), pairs.means, pairs.variances
            )
            if variance > 0.0
        ]
        assert (tested, rejected) == (2, sum(expected))

    def test_slice_tally_refuses_a_foreign_fit(self, scale_5star):
        tensor = parse_tensor(make_tensor_csv({("u", "i"): [1, 2]}), scale_5star)
        other = PairTable([("v", "i")], [1.5], [0.25])
        with pytest.raises(ValueError, match="fit of the tensor"):
            ks_test_slices(tensor, other)


class TestExponentialFit:
    def test_rate_is_inverse_mean(self):
        fit = fit_exponential([0.5, 0.5, 0.5])
        assert fit.rate == pytest.approx(2.0)
        assert fit.sample_size == 3

    def test_nonpositive_rejected(self):
        with pytest.raises(DegenerateInputError, match="exponential support"):
            fit_exponential([0.5, 0.0, 0.2])

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInputError):
            fit_exponential([])

    def test_recovers_rate_from_sampler(self):
        fit = ExponentialFit(rate=2.11, sample_size=213)
        draws = sample_variances(fit, 100_000, seed=42)
        refit = fit_exponential(draws)
        assert refit.rate == pytest.approx(2.11, rel=0.02)


class TestSampleVariances:
    def test_deterministic_per_seed(self):
        fit = ExponentialFit(rate=2.11, sample_size=0)
        a = sample_variances(fit, 1000, seed=9)
        b = sample_variances(fit, 1000, seed=9)
        assert np.array_equal(a, b)
        c = sample_variances(fit, 1000, seed=10)
        assert not np.array_equal(a, c)

    def test_single_draw_positive(self):
        fit = ExponentialFit(rate=2.11, sample_size=0)
        assert sample_variances(fit, 1, seed=0)[0] > 0.0

    def test_bounds_respected(self):
        fit = ExponentialFit(rate=2.11, sample_size=0)
        draws = sample_variances(fit, 5000, bounds=(0.16, 3.84), seed=1)
        assert draws.size == 5000
        assert np.all((draws >= 0.16) & (draws <= 3.84))

    def test_bounds_deterministic(self):
        fit = ExponentialFit(rate=2.11, sample_size=0)
        a = sample_variances(fit, 2000, bounds=(0.16, 3.84), seed=3)
        b = sample_variances(fit, 2000, bounds=(0.16, 3.84), seed=3)
        assert np.array_equal(a, b)

    def test_mean_matches_analytic(self):
        fit = ExponentialFit(rate=2.11, sample_size=0)
        draws = sample_variances(fit, 400_000, seed=8)
        assert draws.mean() == pytest.approx(1 / 2.11, rel=0.005)

    def test_invalid_bounds(self):
        fit = ExponentialFit(rate=2.11, sample_size=0)
        with pytest.raises(ValueError):
            sample_variances(fit, 10, bounds=(2.0, 1.0), seed=0)


class TestVarianceFile:
    def test_parse(self):
        arr = parse_variances("variance\n0.5\n1.25\n")
        assert arr == pytest.approx([0.5, 1.25])

    def test_bad_header(self):
        with pytest.raises(DataFormatError, match="line 1"):
            parse_variances("var\n0.5\n")

    def test_nonpositive_rejected(self):
        with pytest.raises(DataFormatError, match="line 3"):
            parse_variances("variance\n0.5\n-1.0\n")

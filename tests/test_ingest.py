import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from magicbarrier import (
    DataFormatError,
    DegenerateInputError,
    PairTable,
    ScaleSpec,
    filter_nonvanishing,
    fit_exponential,
    fit_pair_gaussians,
    ks_normality_test,
    parse_tensor,
    sample_variances,
)
from magicbarrier import ingest
from magicbarrier.ingest import (
    ks_test_slices,
    nonzero_variance_fraction_by_item,
    parse_predictions,
    parse_variances,
)

from conftest import make_tensor_csv, synthetic_tensor
from oracles import ks_per_slice, serialize_tensor


class TestParseTensor:
    def test_full_study_shape(self, scale_5star):
        # 67 users x 5 items x 5 trials = 1675 records
        text = synthetic_tensor(seed=7, users=67, items=5, trials=5)
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
        text = synthetic_tensor(seed=11, users=8, items=3)
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
        # the slices are views of the group-by that the fit reads later
        assert not any(s.flags.writeable for s in tensor.pair_slices())


# ids the block-wise fast path takes: no comma, quote, NUL or whitespace
_FAST_ID = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4).filter(
    lambda s: not any(c in ',"\x00' or c.isspace() for c in s)
)


@st.composite
def _tensor_lines(draw, lowest=0, min_records=0):
    """A scale and the lines of a valid tensor on it: shuffled records of
    distinct (user, item, trial) triples, some numbers zero-padded."""
    lo = draw(st.integers(lowest, 2))
    scale = ScaleSpec(lo, lo + draw(st.integers(1, 5)), draw(st.integers(1, 6)))
    pairs = draw(st.lists(st.tuples(_FAST_ID, _FAST_ID), max_size=6, unique=True))
    records = [
        (user, item, trial, draw(st.integers(scale.min_category, scale.max_category)))
        for user, item in pairs
        for trial in draw(st.sets(st.integers(1, scale.num_trials), min_size=1))
    ]
    if len(records) < min_records:
        records.append(("u", "i", 1, scale.min_category))
    width = draw(st.integers(1, 3))
    lines = [
        f"{u},{i},{t:0{width}d},{r:0{width}d}" for u, i, t, r in draw(st.permutations(records))
    ]
    return scale, ["user,item,trial,rating", *lines]


def _outcome(read):
    """The columns (with dtypes) of the tensor ``read()`` returns, or its
    error message."""
    try:
        tensor = read()
    except DataFormatError as exc:
        return str(exc)
    return tensor.pair_keys, *(
        (column.dtype, column.tolist())
        for column in (tensor.codes, tensor.trials, tensor.ratings)
    )


def _with_last(change):
    """A mutation that rewrites the last record's (user, item, trial, rating)."""
    def mutate(lines, scale):
        *head, last = lines
        return "\n".join([*head, ",".join(change(last.split(","), scale))]) + "\n"
    return mutate


# text outside the fast path's gate or checks: the per-line parser reads or
# rejects it
_MUTATIONS = {
    "crlf": lambda lines, scale: "\r\n".join(lines) + "\r\n",
    "quoted-ids": _with_last(lambda f, scale: [f'"{f[0]}"', f'"{f[1]}"', *f[2:]]),
    "padded-fields": _with_last(lambda f, scale: [f" {x} " for x in f]),
    "padded-ids": _with_last(lambda f, scale: [f"\t{f[0]}", f"{f[1]}\u2003", *f[2:]]),
    "bom": lambda lines, scale: "\ufeff" + "\n".join(lines) + "\n",
    "upper-header": lambda lines, scale: "\n".join([lines[0].upper(), *lines[1:]]) + "\n",
    "blank-line": lambda lines, scale: "\n".join([*lines[:-1], "", lines[-1]]) + "\n",
    "blank-spaces": lambda lines, scale: "\n".join([*lines[:-1], "  ", lines[-1]]) + "\n",
    "rating-above": _with_last(lambda f, scale: [*f[:3], str(scale.max_category + 1)]),
    "rating-below": _with_last(lambda f, scale: [*f[:3], str(scale.min_category - 1)]),
    "trial-zero": _with_last(lambda f, scale: [*f[:2], "0", f[3]]),
    "trial-above": _with_last(lambda f, scale: [*f[:2], str(scale.num_trials + 1), f[3]]),
    "duplicate": lambda lines, scale: "\n".join([*lines, lines[-1]]) + "\n",
    "long-digits": _with_last(lambda f, scale: [*f[:3], "0" * 19 + f[3]]),
    "plus-sign": _with_last(lambda f, scale: [*f[:2], "+" + f[2], f[3]]),
    "not-a-number": _with_last(lambda f, scale: [*f[:3], "x"]),
    "empty-id": _with_last(lambda f, scale: ["", *f[1:]]),
    "three-fields": _with_last(lambda f, scale: f[:3]),
    "five-fields": _with_last(lambda f, scale: [*f, "1"]),
}


# the fast path's byte scans and sorts are numpy's
@pytest.mark.simd
class TestParseFastPath:
    """The block-wise fast path reads what the per-line parser reads, and
    refuses the rest to it."""

    @given(
        case=_tensor_lines(min_records=1),
        ending=st.sampled_from(["\n", ""]),
        chunk=st.integers(1, 64),
    )
    @settings(max_examples=150, deadline=None)
    def test_plain_text_takes_the_fast_path(self, case, ending, chunk):
        scale, lines = case
        text = "\n".join(lines) + ending
        with mock.patch.object(ingest, "_FAST_CHUNK", chunk):
            fast = ingest._parse_blocks(text, scale)
        assert fast is not None
        assert _outcome(lambda: fast) == _outcome(lambda: ingest._parse_lines(text, scale))

    @given(
        case=_tensor_lines(lowest=-3, min_records=1),
        mutation=st.sampled_from(sorted(_MUTATIONS)),
        chunk=st.sampled_from([1, 20, 1 << 16]),
    )
    @settings(max_examples=300, deadline=None)
    def test_other_text_reads_as_the_per_line_parser_reads_it(self, case, mutation, chunk):
        scale, lines = case
        text = _MUTATIONS[mutation](lines, scale)
        with mock.patch.object(ingest, "_FAST_CHUNK", chunk):
            got = _outcome(lambda: parse_tensor(text, scale))
        assert got == _outcome(lambda: ingest._parse_lines(text, scale))

    @pytest.mark.parametrize("trial", [str(2**63), "0" * 19 + "1"])
    def test_numbers_past_18_digits_are_read_per_line(self, trial):
        # numpy would clamp 2**63 to a trial index this scale allows
        scale = ScaleSpec(1, 5, 2**63 - 1)
        text = f"user,item,trial,rating\nu,i,{trial},3\n"
        assert ingest._parse_blocks(text, scale) is None
        got = _outcome(lambda: parse_tensor(text, scale))
        assert got == _outcome(lambda: ingest._parse_lines(text, scale))


def _fast_outcome(text, scale, chunk=1 << 16):
    """The outcome of the fast path on ``text`` in chunks of about ``chunk``
    characters, once it is checked to take the text whole."""
    with mock.patch.object(ingest, "_FAST_CHUNK", chunk):
        fast = ingest._parse_blocks(text, scale)
    assert fast is not None
    return _outcome(lambda: fast)


# the fast path's byte scans and sorts are numpy's
@pytest.mark.simd
class TestParseFastPathBytes:
    """The fast path over UTF-8 bytes: record orders, field widths, chunk
    boundaries and the pair codes of keys of different byte lengths."""

    @pytest.mark.parametrize("order", ["pair-major", "trial-major", "shuffled"])
    @pytest.mark.parametrize("chunk", [1, 300, 1 << 16])
    def test_record_orders(self, scale_5star, order, chunk):
        header, *records = synthetic_tensor(seed=5, users=30).splitlines()
        if order == "trial-major":
            records.sort(key=lambda line: int(line.split(",")[2]))
        elif order == "shuffled":
            records = [records[k] for k in np.random.default_rng(3).permutation(len(records))]
        text = "\n".join([header, *records]) + "\n"
        expected = _outcome(lambda: ingest._parse_lines(text, scale_5star))
        assert _fast_outcome(text, scale_5star, chunk) == expected

    @pytest.mark.parametrize("chunk", [1, 1 << 16])
    def test_ids_of_1024_characters_take_the_fast_path(self, scale_5star, chunk):
        user, item = "u" * 1024, "é" * 512  # 1,024 UTF-8 bytes each
        text = f"user,item,trial,rating\n{user},{item},1,3\nu,{item},1,4\n{user},{item},2,5\n"
        expected = _outcome(lambda: ingest._parse_lines(text, scale_5star))
        assert _fast_outcome(text, scale_5star, chunk) == expected
        assert expected[0] == ((user, item), ("u", item))

    @pytest.mark.parametrize(
        "user",
        [
            "u" * 1025,
            "é" * 513,  # 513 characters, 1,026 bytes
            "a b",
            "a\u0085b",
            "é b",
            "éb ",
            " éb",
            "a\ud800b",  # a lone surrogate, which UTF-8 cannot encode
        ],
        ids=["1025", "1026-bytes", "nbsp", "nel", "em-space", "em-space-end", "nbsp-start",
             "surrogate"],
    )
    def test_other_ids_are_read_per_line(self, scale_5star, user):
        text = f"user,item,trial,rating\nu,i,1,3\n{user},i,1,4\n{user},i,2,5\n"
        assert ingest._parse_blocks(text, scale_5star) is None
        got = _outcome(lambda: parse_tensor(text, scale_5star))
        assert got == _outcome(lambda: ingest._parse_lines(text, scale_5star))
        assert got[0][1] == (user.strip(), "i")

    def test_digit_fields_across_chunk_boundaries(self):
        # every nominal chunk boundary falls once inside each number
        scale = ScaleSpec(0, 10**18 - 1, 10**17)
        records = [
            ("u1", "i1", "000000000000000007", "123456789012345678"),
            ("u22", "i1", "10", "000000000000000000"),
            ("u1", "i1", "100000000000000000", "999999999999999999"),
            ("u3", "i333", "0042", "0090"),
            ("u22", "i1", "9", "1"),
        ]
        text = "user,item,trial,rating\n" + "".join(",".join(r) + "\n" for r in records)
        expected = _outcome(lambda: ingest._parse_lines(text, scale))
        assert expected[2][1] == [7, 10, 10**17, 42, 9]
        assert expected[3][1] == [123456789012345678, 0, 999999999999999999, 90, 1]
        for chunk in range(1, len(text)):
            assert _fast_outcome(text, scale, chunk) == expected

    @pytest.mark.parametrize("chunk", [1, 12, 1 << 16])
    def test_codes_follow_first_appearance_across_key_lengths(self, scale_5star, chunk):
        text = (
            "user,item,trial,rating\n"
            "u9,i1,1,1\nu10,i1,1,2\nu9,i10,1,3\nu100,i1,1,4\nu9,i1,2,5\n"
            "u1,i1,1,1\nu10,i1,2,2\nu9,i10,2,3\nu100,i1,2,4\n"
        )
        fast = _fast_outcome(text, scale_5star, chunk)
        assert fast == _outcome(lambda: ingest._parse_lines(text, scale_5star))
        assert fast[0] == (("u9", "i1"), ("u10", "i1"), ("u9", "i10"), ("u100", "i1"),
                           ("u1", "i1"))
        assert fast[1][1] == [0, 1, 2, 3, 0, 4, 1, 2, 3]


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

    def test_length_blocks_gather_each_requested_row_once(self):
        # slices of 1 to 12 ratings; the requested rows skip every slice of
        # lengths 3 and 7 and every fifth pair of the others
        rng = np.random.default_rng(8)
        slices = {(f"u{k}", "i"): rng.integers(1, 6, 1 + k % 12).tolist()
                  for k in range(120)}
        tensor = parse_tensor(make_tensor_csv(slices), ScaleSpec(1, 5, 12))
        pair_slices = tensor.pair_slices()
        lengths = np.array([len(s) for s in pair_slices])
        rows = np.flatnonzero((lengths != 3) & (lengths != 7) & (np.arange(120) % 5 != 0))
        seen, block_lengths = [], []
        for at, block in tensor._length_blocks(rows):
            n = block.shape[1]
            assert block.dtype == np.float64 and block.shape == (at.size, n)
            assert np.all(lengths[at] == n)
            for row, ratings in zip(at.tolist(), block):
                assert np.array_equal(ratings, pair_slices[row])
            seen.extend(at.tolist())
            block_lengths.append(n)
        assert sorted(seen) == rows.tolist()
        assert block_lengths == [1, 2, 4, 5, 6, 8, 9, 10, 11, 12]

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

    def test_fits_skip_table_revalidation(self, scale_5star, monkeypatch):
        # the parser's keys are unique and in-scale ratings fit finite columns
        tensor = parse_tensor(
            make_tensor_csv({("u1", "i1"): [1, 2, 1], ("u2", "i1"): [4, 4, 4]}), scale_5star
        )
        monkeypatch.setattr(PairTable, "__post_init__", _refuse_revalidation)
        fits = fit_pair_gaussians(tensor)
        assert fits.keys == (("u1", "i1"), ("u2", "i1"))
        assert not fits.means.flags.writeable and not fits.variances.flags.writeable


def _refuse_revalidation(table):
    raise AssertionError("re-validated a table already known valid")


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

    def test_subset_skips_table_revalidation(self, monkeypatch):
        from conftest import make_dists

        dists = make_dists([0.3, 0.0, 1.2], means=[1.0, 2.0, 3.0])
        monkeypatch.setattr(PairTable, "__post_init__", _refuse_revalidation)
        kept = filter_nonvanishing(dists)
        assert kept.keys == (dists.keys[0], dists.keys[2])
        assert kept.means.tolist() == [1.0, 3.0] and kept.variances.tolist() == [0.3, 1.2]
        assert not kept.means.flags.writeable and not kept.variances.flags.writeable

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

    def test_blocks_match_per_slice_bits(self):
        # interleaved slices of 2 to 12 ratings: each row of the length-grouped
        # KS pass must carry the bits of the slice tested alone
        rng = np.random.default_rng(9)
        slices = {(f"u{k}", "i"): rng.integers(1, 6, 2 + k % 11).tolist() for k in range(600)}
        lines = ["user,item,trial,rating"]
        for t in range(12):
            lines.extend(f"{u},{i},{t + 1},{r[t]}" for (u, i), r in slices.items()
                         if t < len(r))
        tensor = parse_tensor("\n".join(lines), ScaleSpec(1, 5, 12))
        pairs = fit_pair_gaussians(tensor)
        tested = [
            (np.asarray(ratings, dtype=np.float64), mean, math.sqrt(variance))
            for ratings, mean, variance in zip(
                slices.values(), pairs.means.tolist(), pairs.variances.tolist()
            )
            if variance > 0.0
        ]
        expected = [ks_per_slice(*case) for case in tested]
        for (sample, mean, sigma), bits in zip(tested, expected):
            result = ks_normality_test(sample, mean, sigma)
            assert (result.statistic, result.p_value) == bits
        for n in range(2, 13):
            rows = [k for k, (sample, _, _) in enumerate(tested) if sample.size == n]
            d, p = ingest._ks_block(
                np.stack([tested[k][0] for k in rows]),
                np.array([tested[k][1] for k in rows]),
                np.array([math.sqrt(tested[k][2] * tested[k][2]) for k in rows]),
            )
            assert list(zip(d.tolist(), p.tolist())) == [expected[k] for k in rows]
        for alpha in (0.05, 0.5, 0.9):
            rejected = sum(p < alpha for _, p in expected)
            assert ks_test_slices(tensor, pairs, alpha) == (len(expected), rejected)
        assert 0 < sum(p < 0.5 for _, p in expected) < len(expected)

    def test_slice_tally_refuses_a_foreign_fit(self, scale_5star):
        tensor = parse_tensor(make_tensor_csv({("u", "i"): [1, 2]}), scale_5star)
        other = PairTable([("v", "i")], [1.5], [0.25])
        with pytest.raises(ValueError, match="fit of the tensor"):
            ks_test_slices(tensor, other)


class TestExponentialFit:
    def test_rate_is_inverse_mean(self):
        rate = fit_exponential([0.5, 0.5, 0.5])
        assert rate == pytest.approx(2.0)
        assert type(rate) is float

    def test_nonpositive_rejected(self):
        with pytest.raises(DegenerateInputError, match="exponential support"):
            fit_exponential([0.5, 0.0, 0.2])

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInputError):
            fit_exponential([])

    @pytest.mark.parametrize("values", [[0.5, math.nan], np.array([math.inf, 1.0])])
    def test_non_finite_rejected(self, values):
        with pytest.raises(DegenerateInputError, match="exponential support"):
            fit_exponential(values)

    def test_recovers_rate_from_sampler(self):
        draws = sample_variances(2.11, 100_000, seed=42)
        refit = fit_exponential(draws)
        assert refit == pytest.approx(2.11, rel=0.02)


class TestSampleVariances:
    def test_deterministic_per_seed(self):
        a = sample_variances(2.11, 1000, seed=9)
        b = sample_variances(2.11, 1000, seed=9)
        assert np.array_equal(a, b)
        c = sample_variances(2.11, 1000, seed=10)
        assert not np.array_equal(a, c)

    def test_single_draw_positive(self):
        assert sample_variances(2.11, 1, seed=0)[0] > 0.0

    def test_bounds_respected(self):
        draws = sample_variances(2.11, 5000, bounds=(0.16, 3.84), seed=1)
        assert draws.size == 5000
        assert np.all((draws >= 0.16) & (draws <= 3.84))

    def test_bounds_deterministic(self):
        a = sample_variances(2.11, 2000, bounds=(0.16, 3.84), seed=3)
        b = sample_variances(2.11, 2000, bounds=(0.16, 3.84), seed=3)
        assert np.array_equal(a, b)

    def test_mean_matches_analytic(self):
        draws = sample_variances(2.11, 400_000, seed=8)
        assert draws.mean() == pytest.approx(1 / 2.11, rel=0.005)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            sample_variances(2.11, 10, bounds=(2.0, 1.0), seed=0)

    @pytest.mark.parametrize("rate", [0.0, -2.11, math.nan, math.inf])
    def test_invalid_rate(self, rate):
        with pytest.raises(ValueError, match="rate must be finite and > 0"):
            sample_variances(rate, 10, seed=0)

    def test_narrow_window_memory_stays_small(self):
        # mass ~7.4e-7: the inverse CDF needs no more draws here than anywhere
        tracemalloc.start()
        try:
            draws = sample_variances(2.11, 10, bounds=(6.5, 7.0), seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert draws.size == 10
        assert np.all((draws >= 6.5) & (draws <= 7.0))
        assert peak < 1 << 16

    @pytest.mark.parametrize(
        "bounds", [(340.0, 350.0), (50.0, 60.0)], ids=["340-350", "50-60"]
    )
    def test_far_window_sampled(self, bounds):
        # mass 2.7e-312 and 1.6e-46 under Exp(2.11): no draw is wasted
        draws = sample_variances(2.11, 2_800_000, bounds=bounds, seed=0)
        assert draws.size == 2_800_000
        assert np.all((draws >= bounds[0]) & (draws <= bounds[1]))

    @pytest.mark.parametrize(
        "bounds", [(-1.0, 0.0), (0.0, 0.0), (math.nan, 1.0)], ids=["below", "empty", "nan"]
    )
    def test_empty_window_refused(self, bounds):
        with pytest.raises(ValueError, match="bounds"):
            sample_variances(2.11, 10, bounds=bounds, seed=0)

    @given(
        rate=st.floats(1e-3, 1e3),
        n=st.integers(1, 300),
        seed=st.integers(0, 2**64 - 1),
        low=st.one_of(
            st.floats(-10.0, 10.0),
            st.floats(100.0, 1e6),
            st.just(-math.inf),
            st.sampled_from([0.0, -0.0, 5e-324, 340.0]),
        ),
        width=st.one_of(
            st.floats(1e-12, 1e-9),
            st.floats(1e-9, 1e3),
            st.just(math.inf),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_draws_stay_in_window(self, rate, n, seed, low, width):
        high = max(low, 0.0) + width
        assume(high > max(low, 0.0))
        draws = sample_variances(rate, n, bounds=(low, high), seed=seed)
        assert draws.shape == (n,) and draws.dtype == np.float64
        assert np.all((draws >= max(low, 0.0)) & (draws <= high))
        assert np.array_equal(draws, sample_variances(rate, n, (low, high), seed))

    @pytest.mark.parametrize(
        "bounds",
        [None, (0.16, 3.84), (2.0, 3.0), (2.0, math.inf), (-2.0, 0.3), (340.0, 350.0),
         (0.0, 1e-3)],
    )
    def test_matches_truncated_cdf(self, bounds):
        rate = 2.11
        a, b = ingest._window(rate, bounds)
        draws = sample_variances(rate, 20_000, bounds=bounds, seed=12)

        def cdf(x):
            return np.expm1(-rate * (x - a)) / np.expm1(-rate * (b - a))

        assert stats.kstest(draws, cdf).pvalue > 1e-3

    @pytest.mark.parametrize(
        "bounds",
        [(0.16, 3.84), (2.0, 3.0), (2.0, math.inf), (-2.0, 0.3), (340.0, 350.0),
         (0.0, 1e-3), (1.0, 1.0 + 1e-7)],
    )
    def test_analytic_mean_within_4_se(self, bounds):
        draws = sample_variances(2.11, 50_000, bounds=bounds, seed=5)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(ingest._truncated_mean(2.11, bounds) - draws.mean()) <= 4 * se


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1: missing header row"),
            ("var\n0.5\n", "line 1: expected header 'variance', got 'var'"),
            ("variance\n0.5,1\n", "line 2: expected 1 fields, got 2"),
            ("variance\n\n0.5\n  \nx\n", "line 5: not a number: 'x'"),
        ],
        ids=["empty", "header", "fields", "after-blank-lines"],
    )
    def test_errors_name_the_line(self, text, message):
        with pytest.raises(DataFormatError, match=re.escape(message)):
            parse_variances(text)


def dialect_variants(plain):
    """``plain`` CSV text rewritten in each form the shared record reader
    accepts, every one of which must read the same values."""
    lines = plain.splitlines()
    header, records = lines[0], lines[1:]

    def rows(fmt, lines=lines):
        return "".join(",".join(fmt % f for f in line.split(",")) + "\n" for line in lines)

    return {
        "crlf": plain.replace("\n", "\r\n"),
        "bom": "\ufeff" + plain,
        "upper-header": header.upper() + "\n" + rows("%s", records),
        "padded-header": "\ufeff " + header.replace(",", "\t, ") + " \n" + rows("%s", records),
        "blank-lines": "\n".join([header, "", *records, "   ", "\t", ""]) + "\n",
        "quoted": rows('"%s"'),
        "padded": rows("  %s\t"),
        "no-final-newline": plain.rstrip("\n"),
        "all-at-once": "\ufeff" + header.upper() + "\r\n\r\n"
        + rows('"%s"', records).replace("\n", "\r\n \r\n"),
    }


PLAIN_PREDICTIONS = "user,item,prediction\nu0,i0,3.5\nu1,i0,-0.25\nu2,i1,1e-3\n"
PREDICTED_PAIRS = PairTable([("u2", "i1"), ("u0", "i0"), ("u1", "i0")], [3, 3, 3], [1, 1, 1])
PLAIN_VARIANCES = "variance\n0.5\n1.25\n3e-2\n"


class TestRecordDialect:
    @pytest.mark.parametrize("name", list(dialect_variants(PLAIN_PREDICTIONS)))
    def test_predictions_read_alike(self, name):
        text = dialect_variants(PLAIN_PREDICTIONS)[name]
        expected = parse_predictions(PLAIN_PREDICTIONS, PREDICTED_PAIRS).values
        assert expected.tolist() == [1e-3, 3.5, -0.25]
        got = parse_predictions(text, PREDICTED_PAIRS)
        assert got.keys == PREDICTED_PAIRS.keys
        assert np.array_equal(got.values, expected)

    @pytest.mark.parametrize("name", list(dialect_variants(PLAIN_VARIANCES)))
    def test_variances_read_alike(self, name):
        text = dialect_variants(PLAIN_VARIANCES)[name]
        expected = parse_variances(PLAIN_VARIANCES)
        assert expected.tolist() == [0.5, 1.25, 3e-2]
        assert np.array_equal(parse_variances(text), expected)

    @pytest.mark.parametrize(
        "read, text, line",
        [
            (
                lambda text: parse_tensor(text, ScaleSpec(1, 5, 5)),
                'user,item,trial,rating\nu1,i1,1,3\n"u2,i1,1,4\n',
                3,
            ),
            (
                lambda text: parse_predictions(text, PREDICTED_PAIRS),
                'user,item,prediction\nu0,i0,3.5\nu1,i0,-0.25\nu2,i1,"1e-3\n',
                4,
            ),
            (parse_variances, 'variance\n"0.5\n', 2),
            (parse_variances, 'variance\n0.5\n\n"1.25\n\n', 4),
            (parse_variances, 'variance\n"0.5\n""', 2),
            (parse_variances, '"variance\n', 1),
        ],
        ids=["tensor", "predictions", "variances", "after-blank-line", "escaped-quote",
             "header"],
    )
    def test_unterminated_quote_names_its_line(self, read, text, line):
        with pytest.raises(DataFormatError, match=f"line {line}: quoted field not closed"):
            read(text)

    def test_quoted_fields_may_span_lines(self):
        # a field after a closing quote is still read, as the dialect's
        # non-strict mode allows
        tensor = parse_tensor(
            'user,item,trial,rating\n"u\n1",i1,1,3\n"u2" ,i1,1,4\n', ScaleSpec(1, 5, 5)
        )
        assert tensor.pair_keys == (("u\n1", "i1"), ("u2", "i1"))
        predictions = parse_predictions(
            'user,item,prediction\nu0,i0,"3.5\n"\nu1,i0,-0.25\n"u2" ,i1,1e-3\n',
            PREDICTED_PAIRS,
        )
        assert predictions.values.tolist() == [1e-3, 3.5, -0.25]
        assert parse_variances('variance\n"0.5\n\n"\n1.25\n').tolist() == [0.5, 1.25]


def per_line_predictions(text, pairs):
    """``parse_predictions`` with its plain path closed: the per-line reader's
    predictor, or its error message."""
    with mock.patch.object(ingest, "_plain_predictions", return_value=None):
        try:
            return parse_predictions(text, pairs)
        except DataFormatError as exc:
            return str(exc)


# id and value pieces that the plain path refuses or the csv module and
# strip() treat specially, after plain ones; a byte-order mark inside a field
# is an ordinary character to both readers
_ID_PIECES = ["u", "i", "7", "é", "\ufeff", " ", "\t", '"', "\x00", "\u2028", "x" * 1025]
_PLAIN_ID_PIECES = _ID_PIECES[:5]
_PLAIN_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e999", "1_0", "+.5", "3."]),
)
_VALUES = st.one_of(
    _PLAIN_VALUES,
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["-inf", "nan", "abc", "", " 2.5", '"4"']),
)


@st.composite
def predictions_files(draw):
    """Predictions text with quotes, spaces, CRLF, BOM, blank lines, duplicate
    and overlong ids and non-finite values, and pairs that may miss a key.
    Half the files are plain but for their values and duplicates, so the
    plain path meets duplicate and missing pairs often."""
    plain = draw(st.booleans())
    pieces = _PLAIN_ID_PIECES if plain else _ID_PIECES
    ids = st.lists(st.sampled_from(pieces), min_size=1, max_size=3).map("".join)
    records = draw(st.lists(st.tuples(ids, ids, _PLAIN_VALUES if plain else _VALUES), max_size=6))
    lines = [",".join(record) for record in records]
    for _ in range(0 if plain else draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  "])))
    header = "user,item,prediction" if plain else draw(st.sampled_from(
        ["user,item,prediction", "User,Item,Prediction", "\ufeffuser,item,prediction",
         " user, item,prediction"]
    ))
    end = "\n" if plain else draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join([header, *lines]) + draw(st.sampled_from(["", end]))
    keys = list(dict.fromkeys((u.strip(), i.strip()) for u, i, _ in records))
    keys = draw(st.permutations(keys))[: draw(st.integers(0, len(keys)))]
    if draw(st.booleans()) or not keys:
        keys.append(("missing", "pair"))
    return text, PairTable(keys, np.zeros(len(keys)), np.ones(len(keys)))


# the plain path's byte scans and sorts are numpy's
@pytest.mark.simd
class TestPlainPredictions:
    @settings(max_examples=300, deadline=None)
    @given(predictions_files(), st.sampled_from([1, 20, 1 << 16]))
    def test_same_result_as_the_per_line_reader(self, case, chunk):
        text, pairs = case
        expected = per_line_predictions(text, pairs)
        with mock.patch.object(ingest, "_FAST_CHUNK", chunk):
            try:
                got = parse_predictions(text, pairs)
            except DataFormatError as exc:
                got = str(exc)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert got.keys == expected.keys
            assert got.values.tobytes() == expected.values.tobytes()

    def test_plain_text_skips_the_record_reader(self):
        text = PLAIN_PREDICTIONS.rstrip("\n")
        with mock.patch.object(ingest, "_records", side_effect=AssertionError):
            assert parse_predictions(text, PREDICTED_PAIRS).values.tolist() == [1e-3, 3.5, -0.25]

    def test_plain_text_missing_a_pair_skips_the_record_reader(self):
        pairs = PairTable([*PREDICTED_PAIRS.keys, ("u3", "i1")], [3] * 4, [1] * 4)
        with mock.patch.object(ingest, "_records", side_effect=AssertionError):
            with pytest.raises(DataFormatError) as exc:
                parse_predictions(PLAIN_PREDICTIONS, pairs)
        assert str(exc.value) == "missing prediction for pair ('u3', 'i1')"

    @pytest.mark.parametrize(
        "text",
        [
            PLAIN_PREDICTIONS.replace("u1", '"u1"'),
            PLAIN_PREDICTIONS.replace("\n", "\r\n"),
            PLAIN_PREDICTIONS.replace("u1", "u" * 1025),
            PLAIN_PREDICTIONS.replace("u1", "é" * 512 + "u"),  # 513 characters, 1,025 bytes
            PLAIN_PREDICTIONS.replace("u1", "u\u2003"),
            PLAIN_PREDICTIONS + "u0,i0,3.5\n",
            PLAIN_PREDICTIONS.replace("3.5", "inf"),
            "user,item,prediction\n",
        ],
        ids=["quote", "crlf", "overlong-id", "overlong-id-bytes", "em-space", "duplicate",
             "non-finite", "no-records"],
    )
    def test_other_text_goes_to_the_record_reader(self, text):
        with mock.patch.object(ingest, "_records", wraps=ingest._records) as records:
            try:
                parse_predictions(text, PREDICTED_PAIRS)
            except DataFormatError:
                pass
        assert records.called

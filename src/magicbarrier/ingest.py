"""Re-rating data ingestion: tensor, predictions and variance parsing, per-pair
Gaussian fits, normality checks, and the population law of rating variances.

The on-disk format is a flat CSV with header ``user,item,trial,rating``; one
record per observed rating, trial indices 1-based. A parsed tensor is columnar:
integer trial and rating columns plus one integer pair code per record, the
codes numbering the (user, item) pairs in first-appearance order. A tensor
slice is the set of ratings one user gave one item across trials; each slice
is fitted with the Gaussian ML parameters (sample mean, population variance),
all slices of one length as one block, into a :class:`PairTable`. Slices with
zero variance carry no uncertainty signal and are filtered before any barrier
computation.

The tensor, predictions (``user,item,prediction``) and variance
(``variance``) files share one CSV dialect, read by one record reader: the
header matches up to case, surrounding whitespace and a byte-order mark,
fields may be quoted (a quoted field may span lines, and must be closed
before the text ends) and are stripped, blank lines are skipped, LF and CRLF
endings both work, and every malformed record, the csv module's own errors
included, is a :class:`DataFormatError` with its 1-based line number.

Tensor parsing takes a block-wise fast path when the text is plain: the exact
lower-case header, LF line endings, no blank lines, ids without quotes, NUL
or whitespace, and trial and rating fields of ASCII digits. The text is then
gated by one regular expression, split and converted about 64 KiB at a time
(which bounds the per-record Python objects alive at once), and its ranges
and duplicate triples are checked with numpy. One dict pass records the index
of the record each pair first appears in; the ranks of those indices are the
pair codes. Any other text, and any text that fails a check, goes through the
per-line parser on the record reader, which owns every error message and line
number.

A tensor is grouped by pair once, on first use, by one stable sort of its
records; the fit and the KS pass both gather their per-length blocks from
that one group-by by fancy indexing.

Two statistical utilities complete the module: a one-sample Kolmogorov-Smirnov
test of the per-slice normality assumption, run over all slices of one length
as one block, and an exponential fit to the population of positive slice
variances together with a seeded inverse-CDF sampler, on any window of its
support, used to transfer that population onto records where no re-rating
data exists.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy.special import erfc, kolmogorov

from .core import (
    DataFormatError,
    DegenerateInputError,
    PairTable,
    PredictorVector,
    ScaleSpec,
    GaussianSummary,
    _SQRT2,
)

__all__ = [
    "RatingTensor",
    "KSResult",
    "parse_tensor",
    "fit_pair_gaussians",
    "filter_nonvanishing",
    "nonzero_variance_fraction_by_item",
    "ks_normality_test",
    "ks_test_slices",
    "fit_exponential",
    "sample_variances",
    "parse_predictions",
    "parse_variances",
]

TENSOR_HEADER = ("user", "item", "trial", "rating")
PREDICTIONS_HEADER = ("user", "item", "prediction")
VARIANCE_HEADER = ("variance",)


@dataclass(frozen=True, eq=False)
class RatingTensor:
    """Validated re-rating records, as columns.

    Record r is the rating ``ratings[r]`` that pair ``pair_keys[codes[r]]``
    gave in trial ``trials[r]``; pair codes number the (user, item) pairs in
    first-appearance order.
    """

    pair_keys: tuple[tuple[str, str], ...]
    codes: np.ndarray
    trials: np.ndarray
    ratings: np.ndarray

    def __len__(self) -> int:
        return self.codes.size

    @cached_property
    def _grouped(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ratings as float64, sorted by pair code (record order within a
        pair), with each pair's count and start: the fit, KS and slices share it."""
        order = np.argsort(self.codes, kind="stable")
        counts = np.bincount(self.codes, minlength=len(self.pair_keys))
        ratings = self.ratings[order].astype(np.float64)
        ratings.setflags(write=False)
        return ratings, counts, np.cumsum(counts) - counts

    def _length_block(self, rows: np.ndarray, n: int) -> np.ndarray:
        """The ratings of pairs ``rows``, each of length ``n``, as a float64
        (rows, n) block, every row in record order."""
        ratings, _, starts = self._grouped
        return ratings[starts[rows, None] + np.arange(n)]

    def pair_slices(self) -> list[np.ndarray]:
        """Each pair's ratings in record order, indexed by pair code, as
        read-only float64 views of the tensor's one group-by."""
        ratings, counts, starts = self._grouped
        return [ratings[s : s + n] for s, n in zip(starts.tolist(), counts.tolist())]


@dataclass(frozen=True)
class KSResult:
    statistic: float
    p_value: float
    rejected: bool


def parse_tensor(source: str, scale: ScaleSpec) -> RatingTensor:
    """Parse tensor CSV text (header ``user,item,trial,rating``) into a tensor.

    The text is read in the module's CSV dialect. Raises
    :class:`DataFormatError` with a 1-based line number for malformed
    records, duplicate (user, item, trial) triples, trial indices outside
    ``1..scale.num_trials``, and ratings outside the scale.

    Plain text takes a block-wise fast path; anything else, and any text the
    fast path cannot accept whole, goes through the per-line parser, so each
    error message and line number comes from that parser.
    """
    tensor = _parse_blocks(source, scale)
    return tensor if tensor is not None else _parse_lines(source, scale)


# The fast path's gate: the exact lower-case header, then one record per
# LF-terminated line, with ids free of quotes, NUL and whitespace (which the
# csv module and strip() treat specially), at most 1024 characters long (well
# inside the csv module's field-size limit), and trial and rating fields of
# at most 18 ASCII digits (so they fit int64).
_FAST_HEADER = ",".join(TENSOR_HEADER) + "\n"
_FAST_ID = r'[^,"\s\x00]{1,1024}'
_FAST_RECORDS = re.compile(rf"(?:{_FAST_ID},{_FAST_ID},[0-9]{{1,18}},[0-9]{{1,18}}\n)*")
# text is split and converted a chunk of about this many characters at a time,
# which bounds the per-record Python objects alive at once
_FAST_CHUNK = 1 << 16


def _parse_blocks(source: str, scale: ScaleSpec) -> RatingTensor | None:
    """The tensor of ``source``, parsed chunk by chunk with C-level string
    splits and numpy checks; None where the text fails the fast-path gate or
    any check, for the per-line parser to report."""
    if not source.startswith(_FAST_HEADER):
        return None
    # each pair's key and the index of the record it first appears in
    first_seen: dict[tuple[str, str], int] = {}
    firsts, trials, ratings = [], [], []
    records = 0
    pos = len(_FAST_HEADER)
    while pos < len(source):
        end = source.find("\n", pos + _FAST_CHUNK) + 1 or len(source)
        chunk = source[pos:end]
        pos = end
        if not chunk.endswith("\n"):
            chunk += "\n"
        if _FAST_RECORDS.fullmatch(chunk) is None:
            return None
        # four fields per record, then the empty string after the last LF
        fields = chunk.replace("\n", ",").split(",")
        n = len(fields) // 4
        keys = zip(fields[0::4], fields[1::4])
        firsts.append(np.fromiter(map(first_seen.setdefault, keys, count(records)), np.intp, n))
        records += n
        trials.append(np.fromstring(",".join(fields[2::4]), np.int64, sep=","))
        ratings.append(np.fromstring(",".join(fields[3::4]), np.int64, sep=","))
    if not records:  # no records: nothing for the fast path to save
        return None
    first, trials, ratings = (np.concatenate(c) for c in (firsts, trials, ratings))
    # first-appearance indices sort in appearance order, so their ranks are
    # the pair codes
    _, codes = np.unique(first, return_inverse=True)
    if not (
        trials.min() >= 1
        and trials.max() <= scale.num_trials
        and ratings.min() >= scale.min_category
        and ratings.max() <= scale.max_category
    ):
        return None
    # duplicate (code, trial) keys, as one integer each where that fits int64
    width = int(trials.max()) + 1
    if len(first_seen) * width >= 2**63:
        return None
    key = codes * width + trials
    key.sort()
    if np.any(key[1:] == key[:-1]):
        return None
    return RatingTensor(tuple(first_seen), codes, trials, ratings)


def _records(source: str, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """``(line number, fields)`` for each nonblank record of CSV text
    ``source`` after its header row, every field stripped of surrounding
    whitespace.

    The header row must equal ``header`` up to case, surrounding whitespace
    and a byte-order mark, each record must have ``len(header)`` fields, and
    a quoted field must be closed before the text ends; a violation, like any
    ``csv.Error``, is a :class:`DataFormatError` with its 1-based line number.
    """
    # the reader asks for a line past the last one only to go on with a
    # quoted field that the text leaves open
    past_end = False

    def lines() -> Iterator[str]:
        nonlocal past_end
        yield from io.StringIO(source)
        past_end = True

    reader = csv.reader(lines())
    start = 1  # the line the next row starts on
    try:
        for row in reader:
            if past_end:
                raise DataFormatError(f"line {start}: quoted field not closed at end of text")
            if start == 1:
                if tuple(h.strip().lstrip("\ufeff").lstrip().lower() for h in row) != header:
                    raise DataFormatError(
                        f"line 1: expected header {','.join(header)!r}, got {','.join(row)!r}"
                    )
            elif row and (len(row) > 1 or row[0].strip()):
                if len(row) != len(header):
                    raise DataFormatError(
                        f"line {reader.line_num}: expected {len(header)} fields, got {len(row)}"
                    )
                yield reader.line_num, [field.strip() for field in row]
            start = reader.line_num + 1
    except csv.Error as exc:
        raise DataFormatError(f"line {reader.line_num}: {exc}") from None
    if start == 1:
        raise DataFormatError("line 1: missing header row")


def _parse_lines(source: str, scale: ScaleSpec) -> RatingTensor:
    """The per-line parser: every check made record by record."""
    pair_codes: dict[tuple[str, str], int] = {}
    codes: list[int] = []
    trials: list[int] = []
    ratings: list[int] = []
    seen: set[tuple[int, int]] = set()
    for lineno, (user, item, trial_s, rating_s) in _records(source, TENSOR_HEADER):
        if not user or not item:
            raise DataFormatError(f"line {lineno}: empty user or item id")
        try:
            trial = int(trial_s)
            rating = int(rating_s)
        except ValueError:
            raise DataFormatError(
                f"line {lineno}: trial and rating must be integers, "
                f"got {trial_s!r}, {rating_s!r}"
            ) from None
        if not (1 <= trial <= scale.num_trials):
            raise DataFormatError(
                f"line {lineno}: trial index {trial} outside 1..{scale.num_trials}"
            )
        if not (scale.min_category <= rating <= scale.max_category):
            raise DataFormatError(
                f"line {lineno}: rating out of scale: {rating} not in "
                f"[{scale.min_category}, {scale.max_category}]"
            )
        code = pair_codes.setdefault((user, item), len(pair_codes))
        if (code, trial) in seen:
            raise DataFormatError(
                f"line {lineno}: duplicate triple {(user, item, trial)}"
            )
        seen.add((code, trial))
        codes.append(code)
        trials.append(trial)
        ratings.append(rating)
    return RatingTensor(
        tuple(pair_codes),
        np.array(codes, dtype=np.intp),
        np.array(trials, dtype=np.int64),
        np.array(ratings, dtype=np.int64),
    )


def fit_pair_gaussians(tensor: RatingTensor) -> PairTable:
    """Gaussian ML parameters per (user, item) slice.

    Mean is the sample mean; variance is the population variance (divide by
    n), which is the ML estimate. Constant slices yield variance 0. Rows
    follow the pair codes, i.e. first appearance in the tensor. All slices of
    one length are reduced as one block, row by row in record order, so each
    row gets the same bits as ``mean()`` and ``var()`` of its slice alone.
    """
    if not len(tensor):
        raise DegenerateInputError("cannot fit an empty tensor")
    _, counts, _ = tensor._grouped
    means = np.empty(counts.size)
    variances = np.empty(counts.size)
    for n in np.unique(counts).tolist():
        rows = np.flatnonzero(counts == n)
        block = tensor._length_block(rows, n)
        means[rows] = block.mean(axis=1)
        variances[rows] = block.var(axis=1)
    # parsed keys are unique; in-scale ratings fit finite means, variances >= 0
    return PairTable._valid(tensor.pair_keys, means, variances)


def filter_nonvanishing(pairs: PairTable) -> PairTable:
    """Keep only pairs with strictly positive variance, order preserved."""
    keep = pairs.variances > 0.0
    # a subset of a valid table is valid
    return PairTable._valid(
        tuple(compress(pairs.keys, keep)), pairs.means[keep], pairs.variances[keep]
    )


def nonzero_variance_fraction_by_item(pairs: PairTable) -> dict[str, float]:
    """Per-item fraction of pairs whose fitted variance is nonzero."""
    items = [item for _, item in pairs.keys]
    totals = Counter(items)
    nonzero = Counter(compress(items, pairs.variances > 0.0))
    return {item: nonzero[item] / n for item, n in totals.items()}


def ks_normality_test(
    sample: Sequence[float], mu: float, sigma: float, alpha: float = 0.05
) -> KSResult:
    """One-sample KS test of ``sample`` against ``N(mu, sigma^2)``.

    Statistic is the sup distance between the empirical CDF and the reference
    CDF, evaluated at both sides of every step. The p-value uses the
    asymptotic Kolmogorov distribution with the finite-sample scaling
    ``(sqrt(n) + 0.12 + 0.11/sqrt(n)) * D``; at the tiny per-slice sample
    sizes of re-rating studies the test has low power, which is accepted
    rather than corrected.
    """
    if sigma <= 0.0 or not math.isfinite(sigma):
        raise DegenerateInputError("degenerate reference distribution")
    n = len(sample)
    if n < 2:
        raise ValueError(f"need at least 2 observations, got {n}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    ref = GaussianSummary(mu, sigma * sigma)
    block = np.asarray(sample, dtype=np.float64).reshape(1, n)
    d, p = _ks_block(block, np.array([ref.mean], dtype=np.float64), np.array([ref.std]))
    return KSResult(statistic=float(d[0]), p_value=float(p[0]), rejected=bool(p[0] < alpha))


def _ks_block(
    samples: np.ndarray, means: np.ndarray, stds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """KS statistics and p-values of each row of ``samples`` (rows of equal
    length n >= 2) against ``N(means[i], stds[i]^2)``, as
    :func:`ks_normality_test` defines them; each row gets the bits it would
    get alone."""
    n = samples.shape[1]
    xs = np.sort(samples, axis=1)
    # the arithmetic of gaussian_cdf, row by row
    cdf = 0.5 * erfc(-((xs - means[:, None]) / (stds * _SQRT2)[:, None]))
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    d = np.maximum((upper - cdf).max(axis=1), (cdf - lower).max(axis=1))
    sqrt_n = math.sqrt(n)
    return d, kolmogorov((sqrt_n + 0.12 + 0.11 / sqrt_n) * d)


def ks_test_slices(
    tensor: RatingTensor, pairs: PairTable, alpha: float = 0.05
) -> tuple[int, int]:
    """KS-test every nonconstant slice of ``tensor`` against its fitted Gaussian.

    ``pairs`` is the tensor's fit (rows by pair code, as
    :func:`fit_pair_gaussians` returns them). Gathers the slices with nonzero
    variance by length from the tensor's one group-by, the one the fit uses,
    and tests each length's block in one pass, with the arithmetic of
    :func:`ks_normality_test`; returns ``(tested, rejected)``.
    """
    if pairs.keys != tensor.pair_keys:
        raise ValueError("pairs must be the fit of the tensor, row by pair code")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    # a slice with nonzero variance has at least two ratings; the reference
    # std is sqrt(sigma * sigma), as GaussianSummary(mu, sigma**2).std
    _, counts, _ = tensor._grouped
    tested = np.flatnonzero(pairs.variances > 0.0)
    tested_lengths = counts[tested]
    sigmas = np.sqrt(pairs.variances)
    stds = np.sqrt(sigmas * sigmas)
    rejected = 0
    for n in np.unique(tested_lengths).tolist():
        rows = tested[tested_lengths == n]
        _, p = _ks_block(tensor._length_block(rows, n), pairs.means[rows], stds[rows])
        rejected += int(np.count_nonzero(p < alpha))
    return int(tested.size), rejected


def fit_exponential(variances: Iterable[float]) -> float:
    """ML rate of an exponential law (1 / sample mean) fitted to positive
    variances."""
    arr = np.asarray(list(variances), dtype=np.float64)
    if arr.size == 0:
        raise DegenerateInputError("exponential fit needs a nonempty sample")
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise DegenerateInputError("exponential support violated: values must be > 0")
    return float(1.0 / arr.mean())


def _window(rate: float, bounds: tuple[float, float] | None) -> tuple[float, float]:
    """The window [a, b] = [max(low, 0), high] of ``Exp(rate)`` that
    ``bounds`` leave, [0, inf) without bounds.

    Refuses a rate that is not finite and positive, ``low >= high``, and a
    window below the support (``high <= 0``).
    """
    if not (math.isfinite(rate) and rate > 0.0):
        raise ValueError(f"rate must be finite and > 0, got {rate}")
    if bounds is None:
        return 0.0, math.inf
    low, high = bounds
    if not (low < high):
        raise ValueError(f"invalid bounds: need low < high, got {bounds}")
    if high <= 0.0:
        raise ValueError(f"truncation bounds {bounds} lie below the support [0, inf)")
    return max(0.0, low), high


def _truncated_mean(rate: float, bounds: tuple[float, float] | None) -> float:
    """Mean of ``Exp(rate)`` on the window [a, b] of ``bounds``:
    a + 1/rate - w/expm1(rate·w) with w = b - a, which is 1/rate without
    bounds."""
    a, b = _window(rate, bounds)
    x = rate * (b - a)
    if x > 700.0:  # w/expm1(x) = (x/rate)/expm1(x) is nil next to 1/rate
        return a + 1.0 / rate
    if x < 1e-6:  # the closed form cancels; its series is w·(1/2 - x/12 + O(x^3))
        return a + (b - a) * (0.5 - x / 12.0)
    return a + 1.0 / rate - (b - a) / math.expm1(x)


def sample_variances(
    rate: float,
    n: int,
    bounds: tuple[float, float] | None = None,
    seed: int = 0,
) -> np.ndarray:
    """``n`` reproducible draws from ``Exp(rate)``, optionally truncated.

    The draws follow the exponential law restricted to the window [a, b] =
    [max(low, 0), high] of ``bounds``, or [0, inf) without bounds. They are
    drawn by inverting the truncated CDF, which is exact because the law is
    memoryless: one uniform u in [0, 1) per draw gives
    a - log1p(-u·(1 - e^(-rate·(b - a))))/rate, clamped at b against
    rounding. Every window with b > a costs O(n), however far out it lies.
    Identical ``(seed, n, rate, bounds)`` yield an identical array.
    """
    a, b = _window(rate, bounds)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    draws = np.random.default_rng(seed).random(n)
    draws *= math.expm1(-rate * (b - a))
    np.log1p(draws, out=draws)
    draws /= -rate
    draws += a
    return np.minimum(draws, b, out=draws)


def parse_predictions(source: str, pairs: PairTable) -> PredictorVector:
    """Parse predictions CSV text (header ``user,item,prediction``) into one
    prediction per pair of ``pairs``, in its key order.

    Raises :class:`DataFormatError` for a malformed, non-finite or duplicate
    record, with its 1-based line number, and for a pair without a prediction.
    """
    table: dict[tuple[str, str], float] = {}
    for lineno, (user, item, value_s) in _records(source, PREDICTIONS_HEADER):
        try:
            value = float(value_s)
        except ValueError:
            raise DataFormatError(f"line {lineno}: prediction must be a number") from None
        if not math.isfinite(value):
            raise DataFormatError(f"line {lineno}: prediction must be finite")
        if (user, item) in table:
            raise DataFormatError(f"line {lineno}: duplicate pair {(user, item)}")
        table[user, item] = value
    try:
        values = [table[key] for key in pairs.keys]
    except KeyError as exc:
        raise DataFormatError(f"missing prediction for pair {exc.args[0]}") from None
    return PredictorVector(keys=pairs.keys, values=values)


def parse_variances(source: str) -> np.ndarray:
    """Parse variance file text: header ``variance``, one positive real per line."""
    values: list[float] = []
    for lineno, (text,) in _records(source, VARIANCE_HEADER):
        try:
            v = float(text)
        except ValueError:
            raise DataFormatError(f"line {lineno}: not a number: {text!r}") from None
        if not (math.isfinite(v) and v > 0.0):
            raise DataFormatError(f"line {lineno}: variance must be > 0, got {text}")
        values.append(v)
    return np.asarray(values, dtype=np.float64)

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
fields may be quoted and are stripped, blank lines are skipped, LF and CRLF
endings both work, and every malformed record, the csv module's own errors
included, is a :class:`DataFormatError` with its 1-based line number.

Tensor parsing takes a block-wise fast path when the text is plain: the exact
lower-case header, LF line endings, no blank lines, ids without quotes, NUL
or whitespace, and trial and rating fields of ASCII digits. The text is then
gated by one regular expression, split and converted about 64 KiB at a time
(which bounds the per-record Python objects alive at once), and its ranges
and duplicate triples are checked with numpy. Any other text, and any text
that fails a check, goes through the per-line parser on the record reader,
which owns every error message and line number.

Two statistical utilities complete the module: a one-sample Kolmogorov-Smirnov
test of the per-slice normality assumption, run over all slices of one length
as one block, and an exponential fit to the population of positive slice
variances together with a seeded sampler used to transfer that population
onto records where no re-rating data exists.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import compress, count, filterfalse
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
    """Validated re-rating records, as columns, plus the scale they live on.

    Record r is the rating ``ratings[r]`` that pair ``pair_keys[codes[r]]``
    gave in trial ``trials[r]``; pair codes number the (user, item) pairs in
    first-appearance order.
    """

    pair_keys: tuple[tuple[str, str], ...]
    codes: np.ndarray
    trials: np.ndarray
    ratings: np.ndarray
    scale: ScaleSpec

    def __len__(self) -> int:
        return self.codes.size

    def _ratings_by_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """Ratings sorted by pair code (record order within a pair) and the
        rating count of each pair."""
        order = np.argsort(self.codes, kind="stable")
        counts = np.bincount(self.codes, minlength=len(self.pair_keys))
        return self.ratings[order], counts

    def pair_slices(self) -> list[np.ndarray]:
        """Each pair's ratings in record order, indexed by pair code."""
        ratings, counts = self._ratings_by_pair()
        ends = np.cumsum(counts).tolist()
        return [ratings[end - n : end] for end, n in zip(ends, counts.tolist())]


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
    pair_codes: dict[tuple[str, str], int] = {}
    codes, trials, ratings = [], [], []
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
        keys = list(zip(fields[0::4], fields[1::4]))
        fresh = filterfalse(pair_codes.__contains__, dict.fromkeys(keys))
        pair_codes.update(zip(fresh, count(len(pair_codes))))
        codes.append(np.fromiter(map(pair_codes.__getitem__, keys), np.intp, len(keys)))
        trials.append(np.fromstring(",".join(fields[2::4]), np.int64, sep=","))
        ratings.append(np.fromstring(",".join(fields[3::4]), np.int64, sep=","))
    if not codes:  # no records: nothing for the fast path to save
        return None
    codes, trials, ratings = (np.concatenate(c) for c in (codes, trials, ratings))
    if not (
        trials.min() >= 1
        and trials.max() <= scale.num_trials
        and ratings.min() >= scale.min_category
        and ratings.max() <= scale.max_category
    ):
        return None
    # duplicate (code, trial) keys, as one integer each where that fits int64
    width = int(trials.max()) + 1
    if len(pair_codes) * width >= 2**63:
        return None
    key = codes * width + trials
    key.sort()
    if np.any(key[1:] == key[:-1]):
        return None
    return RatingTensor(tuple(pair_codes), codes, trials, ratings, scale)


def _records(source: str, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """``(line number, fields)`` for each nonblank record of CSV text
    ``source`` after its header row, every field stripped of surrounding
    whitespace.

    The header row must equal ``header`` up to case, surrounding whitespace
    and a byte-order mark, and each record must have ``len(header)`` fields;
    a violation, like any ``csv.Error``, is a :class:`DataFormatError` with
    its 1-based line number.
    """
    reader = csv.reader(io.StringIO(source))
    try:
        row = next(reader, None)
        if row is None:
            raise DataFormatError("line 1: missing header row")
        if tuple(h.strip().lstrip("\ufeff").lstrip().lower() for h in row) != header:
            raise DataFormatError(
                f"line 1: expected header {','.join(header)!r}, got {','.join(row)!r}"
            )
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise DataFormatError(
                    f"line {reader.line_num}: expected {len(header)} fields, got {len(row)}"
                )
            yield reader.line_num, [field.strip() for field in row]
    except csv.Error as exc:
        raise DataFormatError(f"line {reader.line_num}: {exc}") from None


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
        scale,
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
    ratings, counts = tensor._ratings_by_pair()
    ratings = ratings.astype(np.float64)
    starts = np.cumsum(counts) - counts
    means = np.empty(counts.size)
    variances = np.empty(counts.size)
    for n in np.unique(counts):
        rows = np.flatnonzero(counts == n)
        block = ratings[starts[rows, None] + np.arange(n)]
        means[rows] = block.mean(axis=1)
        variances[rows] = block.var(axis=1)
    return PairTable(tensor.pair_keys, means, variances)


def filter_nonvanishing(pairs: PairTable) -> PairTable:
    """Keep only pairs with strictly positive variance, order preserved."""
    keep = pairs.variances > 0.0
    return PairTable(
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
    :func:`fit_pair_gaussians` returns them). Groups the tensor once, stacks
    the slices with nonzero variance by length and tests each length's block
    in one pass, with the arithmetic of :func:`ks_normality_test`; returns
    ``(tested, rejected)``.
    """
    if pairs.keys != tensor.pair_keys:
        raise ValueError("pairs must be the fit of the tensor, row by pair code")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    slices = tensor.pair_slices()
    lengths = np.fromiter(map(len, slices), np.intp, len(slices))
    # a slice with nonzero variance has at least two ratings; the reference
    # std is sqrt(sigma * sigma), as GaussianSummary(mu, sigma**2).std
    tested = np.flatnonzero(pairs.variances > 0.0)
    tested_lengths = lengths[tested]
    sigmas = np.sqrt(pairs.variances)
    stds = np.sqrt(sigmas * sigmas)
    rejected = 0
    for n in np.unique(tested_lengths).tolist():
        rows = tested[tested_lengths == n]
        block = np.stack([slices[row] for row in rows.tolist()], dtype=np.float64)
        _, p = _ks_block(block, pairs.means[rows], stds[rows])
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


def sample_variances(
    rate: float,
    n: int,
    bounds: tuple[float, float] | None = None,
    seed: int = 0,
) -> np.ndarray:
    """``n`` reproducible draws from ``Exp(rate)``, optionally truncated.

    Truncation is by rejection, so the draws follow the exponential law
    restricted to ``bounds``. Identical ``(seed, n, rate, bounds)`` yield an
    identical array.
    """
    if not (math.isfinite(rate) and rate > 0.0):
        raise ValueError(f"rate must be finite and > 0, got {rate}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if bounds is not None:
        low, high = bounds
        if not (low < high):
            raise ValueError(f"invalid bounds: need low < high, got {bounds}")
        accept = math.exp(-rate * max(low, 0.0)) - math.exp(-rate * high)
        if accept <= 0.0:
            raise ValueError(f"truncation bounds {bounds} carry no probability mass")
    rng = np.random.default_rng(seed)
    scale = 1.0 / rate
    if bounds is None:
        return rng.exponential(scale, size=n)
    low, high = bounds
    out = np.empty(n, dtype=np.float64)
    filled = 0
    while filled < n:
        # oversample by the analytic acceptance rate to keep iterations few
        want = n - filled
        batch = rng.exponential(scale, size=max(int(want / accept * 1.1) + 16, want))
        kept = batch[(batch >= low) & (batch <= high)]
        take = min(kept.size, want)
        out[filled : filled + take] = kept[:take]
        filled += take
    return out


def parse_predictions(source: str, pairs: PairTable) -> PredictorVector:
    """Parse predictions CSV text (header ``user,item,prediction``) into one
    prediction per pair of ``pairs``, in its key order.

    Raises :class:`DataFormatError` for a malformed or duplicate record, with
    its 1-based line number, and for a pair without a prediction.
    """
    table: dict[tuple[str, str], float] = {}
    for lineno, (user, item, value_s) in _records(source, PREDICTIONS_HEADER):
        try:
            value = float(value_s)
        except ValueError:
            raise DataFormatError(f"line {lineno}: prediction must be a number") from None
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

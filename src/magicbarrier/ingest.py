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

Tensor and predictions parsing take one fast path when the text is plain:
the exact lower-case header, LF line endings, no blank lines, and fields free
of quotes, NUL and whitespace, each at most its limit of UTF-8 bytes (1,024
for ids and predictions, 18 ASCII digits for trials and ratings). One chunk
loop reads such text about 64 KiB at a time (which bounds the per-record work
arrays alive at once), in numpy over its UTF-8 bytes: the comma and LF
positions give every field's extent, and a byte table refuses quotes, NUL and
ASCII whitespace (one regular-expression search finds any other whitespace in
text that is not ASCII). A tensor makes no Python object per record: its
digit fields are converted one digit position at a time, and each record's
"user,item" bytes are grouped by their length; one ``np.unique`` over each
length's block, across all chunks, finds the distinct pairs, and only those
are decoded. Ranked by the record each first appears in, they give the pair
codes. Ranges and duplicate triples are then checked with numpy. Predictions
are read by C-level splits, ``float`` maps and one dict. Any other text, and
any text that fails a check, goes through the per-line parser on the record
reader, which owns every error message and line number.

A tensor is grouped by pair once, on first use, by one stable sort of its
records; one iterator gathers each slice length's block from it by fancy
indexing, for the fit over all pairs and the KS pass over nonconstant ones.

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
from itertools import compress
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

    def _length_blocks(self, rows: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """For each slice length n among pairs ``rows``, those of its pairs and
        their ratings as a float64 (pairs, n) block, every row in record order."""
        ratings, counts, starts = self._grouped
        lengths = counts[rows]
        for n in np.unique(lengths).tolist():
            at = rows[lengths == n]
            yield at, ratings[starts[at, None] + np.arange(n)]

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


# Plain text: the exact lower-case header, then one record per LF-terminated
# line of fields free of quotes, NUL and whitespace (which the csv module and
# strip() treat specially), each of 1 to its limit of UTF-8 bytes: 1024 (well
# inside the csv module's field-size limit), or 18 digits (which fit int64).
_TENSOR_LIMITS = np.array([1024, 1024, 18, 18])
_PREDICTION_LIMITS = np.array([1024, 1024, 1024])
# the separators closing a record's fields, per field count, and the bytes it
# may not hold: quote, NUL and ASCII whitespace other than LF
_SEPARATORS = {n: np.frombuffer(b"," * (n - 1) + b"\n", np.uint8) for n in (3, 4)}
_REFUSED_BYTES = np.zeros(256, dtype=bool)
_REFUSED_BYTES[[0, ord('"'), *(c for c in range(128) if chr(c).isspace() and c != 10)]] = True
# whitespace past ASCII, looked for only in text that is not ASCII
_WIDE_SPACE = re.compile(r"[^\S\x00-\x7f]")
# text is parsed a chunk of about this many characters at a time, which
# bounds the per-record work arrays alive at once
_FAST_CHUNK = 1 << 16


def _plain_chunks(
    source: str, header: tuple[str, ...], limits: np.ndarray
) -> Iterator[tuple | None]:
    """Each chunk of about ``_FAST_CHUNK`` characters of ``source`` after its
    header row ``header``, as LF-terminated lines, with what
    :func:`_chunk_fields` gives for it; then None, and no more, at the first
    chunk that is not plain, or at once for text without that exact header
    or without records."""
    head = ",".join(header) + "\n"
    if not source.startswith(head) or len(source) == len(head):
        yield None
        return
    pos = len(head)
    while pos < len(source):
        end = source.find("\n", pos + _FAST_CHUNK) + 1 or len(source)
        chunk = source[pos:end]
        pos = end
        if not chunk.endswith("\n"):
            chunk += "\n"
        fields = _chunk_fields(chunk, limits)
        if fields is None:
            yield None
            return
        yield chunk, *fields


def _chunk_fields(chunk: str, limits: np.ndarray) -> tuple[np.ndarray, ...] | None:
    """The UTF-8 bytes of ``chunk`` (LF-terminated lines), each record's start,
    and its fields' (n, fields) ends (exclusive) and widths in bytes; None
    unless every line is fields of 1 to ``limits`` bytes free of refused ones."""
    if not chunk.isascii() and _WIDE_SPACE.search(chunk):
        return None
    try:
        text = np.frombuffer(chunk.encode(), np.uint8)
    except UnicodeEncodeError:  # a lone surrogate
        return None
    if _REFUSED_BYTES.take(text).any():
        return None
    n = limits.size
    separators = np.flatnonzero((text == 44) | (text == 10))
    if separators.size % n or np.any(text[separators].reshape(-1, n) != _SEPARATORS[n]):
        return None
    widths = (np.diff(separators, prepend=-1) - 1).reshape(-1, n)
    if widths.min() < 1 or np.any(widths > limits):
        return None
    ends = separators.reshape(-1, n)
    return text, ends[:, 0] - widths[:, 0], ends, widths


def _parse_blocks(source: str, scale: ScaleSpec) -> RatingTensor | None:
    """The tensor of ``source``, parsed chunk by chunk in numpy over its UTF-8
    bytes; None where the text is not plain or fails a check, for the
    per-line parser to report."""
    # each line after the header is one record, or the text is not plain
    lines = source.count("\n") - source.endswith("\n")
    trials = np.empty(lines, np.int64)
    ratings = np.empty(lines, np.int64)
    key_sizes = np.empty(lines, np.uint16)  # at most 2,049 bytes
    # per key size s: the "user,item" bytes of the records whose key is s
    # bytes long, as (n, s) blocks in record order
    keys: dict[int, list[np.ndarray]] = {}
    records = 0
    for chunk in _plain_chunks(source, TENSOR_HEADER, _TENSOR_LIMITS):
        if chunk is None:
            return None
        _, text, starts, ends, widths = chunk
        trial, rating = (_digit_field(text, ends[:, j], widths[:, j]) for j in (2, 3))
        if trial is None or rating is None:
            return None
        span = slice(records, records + starts.size)
        trials[span], ratings[span] = trial, rating
        sizes = key_sizes[span]
        sizes[:] = ends[:, 1] - starts
        for size in np.flatnonzero(np.bincount(sizes)).tolist():
            keys.setdefault(size, []).append(sliding_window_view(text, size)[starts[sizes == size]])
        records = span.stop
    if not (
        trials.min() >= 1
        and trials.max() <= scale.num_trials
        and ratings.min() >= scale.min_category
        and ratings.max() <= scale.max_category
    ):
        return None
    # the distinct keys of each size, exactly and over all chunks: each
    # record's index into them, each one's first record, and its (user, item)
    codes = np.empty(records, np.intp)
    firsts, distinct = [], []
    for size in list(keys):
        at = np.flatnonzero(key_sizes == size)
        block = np.concatenate(keys.pop(size)).view(f"V{size}").ravel()
        unique, first, inverse = np.unique(block, return_index=True, return_inverse=True)
        codes[at] = inverse + len(distinct)
        firsts.append(at[first])
        # the distinct keys, each closed by a comma, decoded at once
        joined = np.full((unique.size, size + 1), ord(","), np.uint8)
        joined[:, :size] = unique.view(np.uint8).reshape(-1, size)
        ids = joined.tobytes().decode().split(",")
        distinct.extend(zip(ids[0::2], ids[1::2]))
    # ranked by first record, the distinct keys are in first-appearance order
    order = np.argsort(np.concatenate(firsts))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    codes = rank[codes]
    # duplicate (code, trial) keys, as one integer each where that fits int64
    width = int(trials.max()) + 1
    if order.size * width >= 2**63:
        return None
    key = codes * width + trials
    key.sort()
    if np.any(key[1:] == key[:-1]):
        return None
    return RatingTensor(tuple(map(distinct.__getitem__, order.tolist())), codes, trials, ratings)


def _digit_field(text: np.ndarray, ends: np.ndarray, widths: np.ndarray) -> np.ndarray | None:
    """The values of the fields of ``text`` that end (exclusive) at ``ends``
    and are ``widths`` bytes wide, read with one pass per digit position;
    None unless every byte of them is an ASCII digit."""
    values = np.zeros(ends.size, np.int64)
    for k in range(int(widths.max())):
        # past a field's start the index runs into earlier bytes, or is
        # clipped at the chunk's start; those digits are masked out
        digits = np.take(text, ends - (k + 1), mode="clip") - np.uint8(48)
        inside = widths > k
        if np.any((digits > 9) & inside):  # bytes below "0" wrap past 9
            return None
        values += np.where(inside, digits, np.int64(0)) * 10**k
    return values


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
    means = np.empty(len(tensor.pair_keys))
    variances = np.empty(len(tensor.pair_keys))
    for rows, block in tensor._length_blocks(np.arange(means.size)):
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
    from scipy.special import erfc, kolmogorov
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
    :func:`fit_pair_gaussians` returns them). Walks the slices with nonzero
    variance through the fit's per-length blocks and tests each block in one
    pass, with the arithmetic of :func:`ks_normality_test`; returns
    ``(tested, rejected)``.
    """
    if pairs.keys != tensor.pair_keys:
        raise ValueError("pairs must be the fit of the tensor, row by pair code")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    # a slice with nonzero variance has at least two ratings; the reference
    # std is sqrt(sigma * sigma), as GaussianSummary(mu, sigma**2).std
    tested = np.flatnonzero(pairs.variances > 0.0)
    sigmas = np.sqrt(pairs.variances)
    stds = np.sqrt(sigmas * sigmas)
    rejected = 0
    for rows, block in tensor._length_blocks(tested):
        _, p = _ks_block(block, pairs.means[rows], stds[rows])
        rejected += int(np.count_nonzero(p < alpha))
    return int(tested.size), rejected


def fit_exponential(variances: Sequence[float] | np.ndarray) -> float:
    """ML rate of an exponential law (1 / sample mean) fitted to positive
    variances, read as one float64 array."""
    arr = np.asarray(variances, dtype=np.float64)
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

    Plain text, as the tensor's fast path defines it, is read with no
    per-record Python; any other text, and plain text with a duplicate pair or
    a value that is not a finite number, goes through the per-line reader,
    which owns every record's error message and line number. Either table is
    aligned to ``pairs`` by one step.
    """
    table = _plain_predictions(source)
    if table is None:
        table = {}
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
        values = list(map(table.__getitem__, pairs.keys))
    except KeyError as exc:
        raise DataFormatError(f"missing prediction for pair {exc.args[0]}") from None
    return PredictorVector(keys=pairs.keys, values=values)


def _plain_predictions(source: str) -> dict[tuple[str, str], float] | None:
    """The prediction of each pair in plain ``source``, read by C-level
    splits, ``float`` maps and one dict; None where the text is not plain or
    holds a duplicate pair or a value that is not a finite number."""
    table: dict[tuple[str, str], float] = {}
    records = 0
    for chunk in _plain_chunks(source, PREDICTIONS_HEADER, _PREDICTION_LIMITS):
        if chunk is None:
            return None
        # user, item and value fields in turn, then one empty string
        fields = chunk[0].replace("\n", ",").split(",")
        try:
            values = list(map(float, fields[2::3]))
        except ValueError:
            return None
        if not np.isfinite(values).all():
            return None
        table.update(zip(zip(fields[0::3], fields[1::3]), values))
        records += len(values)
    return table if len(table) == records else None


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

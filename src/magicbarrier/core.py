"""Shared domain types and rating-scale arithmetic.

The model treats every user-item rating as a latent random variable: a user
asked to re-rate the same item scatters around a personal preference value.
Two quantities recur everywhere downstream:

- per-pair rating distributions, Gaussian ``N(mean, variance)``, fitted from
  repeated ratings on a bounded discrete scale and held as one
  :class:`PairTable`: the (user, item) keys plus a ``means`` and a
  ``variances`` column, and
- metric-level Gaussian summaries, used both for a recommender's metric score
  and for the Magic Barrier (the metric distribution of the optimal
  recommender).

This module also owns the scale arithmetic: which population variances a
fixed number of integer ratings on a bounded scale can produce at all. Those
bounds delimit every sensitivity analysis.

Conventions fixed here and relied on by the rest of the package:

- variances are population variances (divide by n), matching the ML estimator
  for a Gaussian;
- ratings inside a tensor are integers on the scale, while means, variances
  and predictions are real-valued;
- all types are immutable after construction (their arrays are read-only)
  and safe to share across threads.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

__all__ = [
    "MagicBarrierError",
    "DataFormatError",
    "DegenerateInputError",
    "ScaleSpec",
    "PairTable",
    "PredictorVector",
    "GaussianSummary",
    "MetricKind",
    "variance_bounds",
    "gaussian_cdf",
]

_SQRT2 = math.sqrt(2.0)


class MagicBarrierError(Exception):
    """Base class for errors raised by this package."""


class DataFormatError(MagicBarrierError):
    """Malformed or inconsistent input data (CSV records, JSON payloads)."""


class DegenerateInputError(MagicBarrierError):
    """Numerically degenerate input for which the requested quantity is undefined."""


@dataclass(frozen=True)
class ScaleSpec:
    """A bounded integer rating scale with a fixed number of re-rating trials.

    ``num_trials`` is the number of repeated ratings collected per user-item
    pair, not a Monte-Carlo parameter.
    """

    min_category: int
    max_category: int
    num_trials: int

    def __post_init__(self) -> None:
        # the tensor parsers compare integer ratings and trials with these; a
        # bool is not an integer here, as in the JSON loaders
        for name in ("min_category", "max_category", "num_trials"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.min_category >= self.max_category:
            raise ValueError(
                f"min_category must be < max_category, got "
                f"[{self.min_category}, {self.max_category}]"
            )
        if self.num_trials < 1:
            raise ValueError(f"num_trials must be >= 1, got {self.num_trials}")


def _readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64).reshape(-1)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PairTable:
    """Every user-item pair's latent rating ``N(mean, variance)``, as columns.

    Row i is the pair ``keys[i] = (user, item)``; ``means`` and ``variances``
    are read-only float64 arrays aligned with ``keys``. Construction copies
    the columns and validates them once: equal lengths, finite means, finite
    nonnegative variances and no pair twice.
    """

    keys: tuple[tuple[str, str], ...]
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self) -> None:
        keys = tuple(self.keys)
        means = _readonly(self.means)
        variances = _readonly(self.variances)
        if not len(keys) == means.size == variances.size:
            raise ValueError(
                f"keys, means and variances must have equal length, got "
                f"{len(keys)}, {means.size} and {variances.size}"
            )
        if not np.all(np.isfinite(means)):
            raise ValueError("means must be finite")
        if not np.all(np.isfinite(variances) & (variances >= 0.0)):
            raise ValueError("variances must be finite and >= 0")
        if len(set(keys)) != len(keys):
            duplicate = next(k for k, n in Counter(keys).items() if n > 1)
            raise ValueError(f"duplicate pair {duplicate}")
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)

    @classmethod
    def _valid(cls, keys, means: np.ndarray, variances: np.ndarray) -> "PairTable":
        """A table from columns known to pass the checks above (a tuple of
        unique keys, two new float64 arrays), kept without a copy or a check."""
        table = object.__new__(cls)
        for name, column in (("keys", keys), ("means", means), ("variances", variances)):
            object.__setattr__(table, name, column)
        means.setflags(write=False)
        variances.setflags(write=False)
        return table

    def __len__(self) -> int:
        return len(self.keys)


@dataclass(frozen=True, eq=False)
class PredictorVector:
    """One recommender system: a real-valued prediction per user-item pair.

    ``values`` is a read-only array of finite float64 predictions aligned
    with ``keys``; ``check_aligned`` enforces that the keys match a
    :class:`PairTable`'s before any metric evaluation.
    """

    keys: tuple[tuple[str, str], ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = _readonly(self.values)
        if len(self.keys) != values.size:
            raise ValueError(
                f"keys and values must have equal length, got "
                f"{len(self.keys)} vs {values.size}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "keys", tuple(self.keys))
        object.__setattr__(self, "values", values)

    def check_aligned(self, pairs: PairTable) -> None:
        if self.keys == pairs.keys:
            return
        if len(self.keys) != len(pairs):
            raise ValueError(
                f"predictor length {len(self.keys)} does not match "
                f"{len(pairs)} pairs"
            )
        i = next(i for i, (k, d) in enumerate(zip(self.keys, pairs.keys)) if k != d)
        raise ValueError(
            f"predictor key mismatch at index {i}: {self.keys[i]} vs {pairs.keys[i]}"
        )


@dataclass(frozen=True)
class GaussianSummary:
    """(mean, variance) of a metric-level distribution.

    Used both for closed-form approximations and for summarising Monte-Carlo
    samples. ``variance == 0`` is legal and denotes a point mass at ``mean``;
    its CDF (:func:`gaussian_cdf`) then degenerates to a unit step (0 below
    the mean, 1 at and above it) and the PDF is undefined.
    """

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        if not (math.isfinite(self.variance) and self.variance >= 0.0):
            raise ValueError(f"variance must be finite and >= 0, got {self.variance}")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


class MetricKind(Enum):
    """Supported accuracy metrics.

    Each kind fixes the per-pair comparison of a rating draw against a
    prediction (squared residual for RMSE, absolute residual for MAE) and the
    matching optimal-predictor rule (mean respectively median of the latent
    rating; both coincide under the symmetric Gaussian model).
    """

    RMSE = "rmse"
    MAE = "mae"


def variance_bounds(scale: ScaleSpec) -> tuple[float, float]:
    """Extreme population variances attainable by ``num_trials`` integer ratings.

    Returns ``(min nonzero variance, max variance)`` over all multisets of
    ``num_trials`` scale categories. The smallest nonzero variance,
    (t - 1)/t^2, comes only from one rating one step off the others; the
    largest, k(t - k)(max - min)^2/t^2 with k = t // 2, from splitting the
    ratings between the two scale ends as evenly as possible. Each is one
    division of exact integers, so each is correctly rounded.

    Raises :class:`DegenerateInputError` for fewer than two trials, where no
    nonzero variance is attainable, and ``ValueError`` where a bound leaves
    float64.
    """
    t = scale.num_trials
    if t < 2:
        raise DegenerateInputError(
            f"no nonzero variance attainable with num_trials={t}"
        )
    # as Python integers, which do not wrap
    t, lo, hi = int(t), int(scale.min_category), int(scale.max_category)
    k = t // 2
    low = (t - 1) / t**2
    try:
        high = k * (t - k) * (hi - lo) ** 2 / t**2
    except OverflowError:
        raise ValueError(f"the variance of {t} ratings in [{lo}, {hi}] overflows float64")
    if low == 0.0:
        raise ValueError(f"the smallest nonzero variance of {t} ratings underflows float64")
    return low, high


def gaussian_cdf(g: GaussianSummary, x):
    """CDF of ``g`` at ``x`` (scalar or array).

    For ``variance == 0`` this is the unit step at the mean: 0 strictly below
    ``g.mean`` and 1 at or above it.
    """
    if g.variance == 0.0:
        if np.ndim(x) == 0:
            return 1.0 if float(x) >= g.mean else 0.0
        return np.where(np.asarray(x, dtype=np.float64) >= g.mean, 1.0, 0.0)
    if np.ndim(x) == 0:
        z = (float(x) - g.mean) / (g.std * _SQRT2)
        return 0.5 * math.erfc(-z)
    from scipy.special import erfc

    # a z past float64 is the CDF's limit, as erfc(-inf) = 2 and erfc(inf) = 0
    with np.errstate(over="ignore"):
        z = (np.asarray(x, dtype=np.float64) - g.mean) / (g.std * _SQRT2)
    return 0.5 * erfc(-z)


def as_float_array(values: Iterable[float], name: str) -> np.ndarray:
    """Copy ``values`` into a float64 array, rejecting non-finite entries."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr

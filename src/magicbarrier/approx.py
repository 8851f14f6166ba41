"""Closed-form Gaussian error propagation for metric distributions.

The slow path convolves N per-pair densities by simulation; this module gets
the same distributions in microseconds by moment propagation. The chain for
the RMSE under per-pair Gaussians:

1. Each squared residual has known moments. With prediction offset
   ``d = mean - prediction`` the residual is ``N(d, s2)``, so the squared
   residual is a scaled noncentral chi-square with
   ``E = s2 + d^2`` and ``V = 2*s2^2 + 4*d^2*s2``
   (``d = 0`` recovers the optimal recommender, ``E = s2``, ``V = 2*s2^2``).
2. Their average Z is asymptotically Gaussian with ``E[Z] = mean of E`` and
   ``V[Z] = sum of V / N^2``.
3. The square root is propagated through a first-order Taylor expansion:
   ``E[sqrt(Z)] ~ sqrt(E[Z])`` and ``V[sqrt(Z)] ~ V[Z] / (4 E[Z])``.

The truncation to first order is deliberate: it is what makes the headline
formulas single-line, and its error is measured (not assumed) by regression
against simulation in the test suite.

The MAE needs no Taylor step at all: absolute residuals are folded normals
with exact first and second moments, and their average is treated as Gaussian
by the same central-limit argument.

The Gaussian shape assumption for the metric degrades for small N (the
average of squared residuals is chi-square-like and only converges to a
Gaussian as N grows); callers are warned below N = 100 pairs.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from .core import DegenerateInputError, GaussianSummary, as_float_array

__all__ = [
    "magic_barrier_rmse",
    "rmse_summary_from_offsets",
    "mae_summary_from_offsets",
    "SMALL_N_WARNING_THRESHOLD",
]

SMALL_N_WARNING_THRESHOLD = 100


def _checked(
    variances: Sequence[float], offsets: Sequence[float] | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Variances and offsets as float arrays, checked once for both metrics."""
    arr = as_float_array(variances, "variances")
    if arr.size == 0:
        raise DegenerateInputError("empty variance list")
    if np.any(arr < 0.0):
        raise ValueError("variances must be >= 0")
    if offsets is None:
        return arr, None
    off = as_float_array(offsets, "offsets")
    if off.size != arr.size:
        raise ValueError(
            f"offsets length {off.size} does not match {arr.size} variances"
        )
    return arr, off


def magic_barrier_rmse(variances: Sequence[float]) -> GaussianSummary:
    """Gaussian approximation of the optimal recommender's RMSE distribution.

    ``mean = sqrt(sum(s2)/N)`` and ``variance = sum(s4) / (2*N*sum(s2))``.
    All variances must be nonnegative and at least one positive, otherwise
    the barrier is a point mass at zero and the ratio is undefined.
    """
    return rmse_summary_from_offsets(variances)


def rmse_summary_from_offsets(
    variances: Sequence[float], offsets: Sequence[float] | None = None
) -> GaussianSummary:
    """RMSE distribution for a system with per-pair prediction offsets.

    With ``d = mean - prediction`` the per-pair squared residual has
    ``E = s2 + d^2`` and ``V = 2*s2^2 + 4*d^2*s2``, so
    ``mean = sqrt(sum(E)/N)`` and
    ``variance = (sum(V)/N^2) / (4*sum(E)/N) = sum(V) / (4*N*sum(E))``.
    ``offsets=None`` is the optimal recommender, i.e. the Magic Barrier.
    """
    arr, off = _checked(variances, offsets)
    n = arr.size
    if off is None:
        e_sum = float(np.sum(arr))
        v_sum = float(2.0 * np.sum(arr**2))
    else:
        d2 = off**2
        e_sum = float(np.sum(arr) + np.sum(d2))
        v_sum = float(np.sum(2.0 * arr**2 + 4.0 * d2 * arr))
    if e_sum <= 0.0:
        raise DegenerateInputError(
            "degenerate barrier: zero variances and zero offsets everywhere"
        )
    return GaussianSummary(
        mean=math.sqrt(e_sum / n), variance=v_sum / (4.0 * n * e_sum)
    )


def _folded_normal_moments(
    offsets: np.ndarray, variances: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean and variance of |N(offset, variance)| per entry."""
    mean = np.abs(offsets).astype(np.float64)
    var = np.zeros_like(mean)
    pos = variances > 0.0
    if np.any(pos):
        d = offsets[pos]
        s2 = variances[pos]
        s = np.sqrt(s2)
        m = s * math.sqrt(2.0 / math.pi) * np.exp(-(d**2) / (2.0 * s2)) + d * (
            1.0 - 2.0 * ndtr(-d / s)
        )
        mean[pos] = m
        # cancellation guard: for |d| >> s the exact value approaches s2 from above
        var[pos] = np.maximum(s2 + d**2 - m**2, 0.0)
    return mean, var


def mae_summary_from_offsets(
    variances: Sequence[float], offsets: Sequence[float] | None = None
) -> GaussianSummary:
    """MAE distribution from per-pair folded-normal moments.

    The mean absolute residual needs no series expansion: per pair,
    ``E|N(d, s2)|`` and its variance are exact, and the metric is their plain
    average, so ``mean = avg(E)`` and ``variance = sum(V)/N^2``.
    """
    arr, off = _checked(variances, offsets)
    m, v = _folded_normal_moments(np.zeros_like(arr) if off is None else off, arr)
    n = arr.size
    return GaussianSummary(
        mean=float(np.mean(m)),
        variance=float(np.sum(v)) / (n * n),
    )

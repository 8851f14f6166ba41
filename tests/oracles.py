"""Independent reference computations the tests check the package against.

None of these is part of the package: each is a second route to a number
the package computes another way, kept small enough to be read at a glance.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from typing import Sequence

import numpy as np
from scipy.special import kolmogorov

from magicbarrier import (
    DegenerateInputError,
    GaussianSummary,
    MetricKind,
    MetricSample,
    PairTable,
    PredictorVector,
    RatingTensor,
    ScaleSpec,
    gaussian_cdf,
    interference_probability,
)
from magicbarrier.ingest import TENSOR_HEADER


def gaussian_pdf(g: GaussianSummary, x):
    """Density of ``g`` at ``x`` (scalar or array). Undefined for zero variance."""
    if g.variance == 0.0:
        raise DegenerateInputError("density undefined for zero variance")
    x = np.asarray(x, dtype=np.float64)
    z2 = (x - g.mean) ** 2 / (2.0 * g.variance)
    out = np.exp(-z2) / math.sqrt(2.0 * math.pi * g.variance)
    return float(out) if out.ndim == 0 else out


def enumerated_variance_bounds(scale: ScaleSpec) -> tuple[float, float]:
    """``(min nonzero, max)`` population variance over every multiset of
    ``num_trials`` categories, enumerated as sorted tuples and evaluated with
    the expression :func:`variance_bounds` applies to its extremal ones."""
    t = scale.num_trials
    min_nonzero = math.inf
    max_var = 0.0
    for multiset in itertools.combinations_with_replacement(scale.categories, t):
        m = sum(multiset) / t
        v = sum((x - m) ** 2 for x in multiset) / t
        if 0.0 < v < min_nonzero:
            min_nonzero = v
        if v > max_var:
            max_var = v
    return (min_nonzero, max_var)


def serialize_tensor(tensor: RatingTensor) -> str:
    """Tensor CSV text of ``tensor`` (LF line endings); ``parse_tensor``
    must read it back to the same columns."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(TENSOR_HEADER)
    for code, trial, rating in zip(
        tensor.codes.tolist(), tensor.trials.tolist(), tensor.ratings.tolist()
    ):
        writer.writerow([*tensor.pair_keys[code], trial, rating])
    return out.getvalue()


def ks_per_slice(sample, mu: float, sigma: float) -> tuple[float, float]:
    """KS statistic and p-value of one slice against ``N(mu, sigma^2)``,
    computed slice by slice through :func:`gaussian_cdf`."""
    n = len(sample)
    xs = np.sort(np.asarray(sample, dtype=np.float64))
    cdf = gaussian_cdf(GaussianSummary(mu, sigma * sigma), xs)
    d = float(max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(0, n) / n)))
    sqrt_n = math.sqrt(n)
    return d, float(kolmogorov((sqrt_n + 0.12 + 0.11 / sqrt_n) * d))


def evaluate_metric_once(
    dists: PairTable,
    predictors: PredictorVector,
    metric: MetricKind,
    draws: Sequence[float],
) -> float:
    """Metric value for one realization (one rating draw per pair)."""
    predictors.check_aligned(dists)
    x = np.asarray(draws, dtype=np.float64)
    if x.shape != (len(dists),):
        raise ValueError(
            f"expected {len(dists)} draws, got shape {x.shape}"
        )
    resid = x - predictors.values
    if metric is MetricKind.RMSE:
        return float(np.sqrt(np.mean(resid * resid)))
    if metric is MetricKind.MAE:
        return float(np.mean(np.abs(resid)))
    raise ValueError(f"unknown metric: {metric!r}")


def interference_probability_quadrature(
    a: GaussianSummary, b: GaussianSummary, points: int = 40001
) -> float:
    """P(A > B) by numeric quadrature of ``integral f_B(x) * (1 - F_A(x)) dx``.

    Independent second route to :func:`interference_probability`; the two must
    agree within 1e-6. Degenerate sides reduce analytically (the integral
    collapses onto the point mass).
    """
    if a.variance + b.variance == 0.0:
        return interference_probability(a, b)
    if b.variance == 0.0:
        return 1.0 - gaussian_cdf(a, b.mean)
    if a.variance == 0.0:
        return gaussian_cdf(b, a.mean)
    lo = min(a.mean - 10.0 * a.std, b.mean - 10.0 * b.std)
    hi = max(a.mean + 10.0 * a.std, b.mean + 10.0 * b.std)
    x = np.linspace(lo, hi, points)
    integrand = gaussian_pdf(b, x) * (1.0 - gaussian_cdf(a, x))
    return float(np.trapezoid(integrand, x))


def interference_probability_empirical(a: MetricSample, b: MetricSample) -> float:
    """P(A > B) from two metric samples evaluated on shared draws, trial by
    trial; requires equal trial counts with aligned trial indices."""
    if a.values.shape != b.values.shape:
        raise ValueError(
            f"samples must have equal trial counts, got "
            f"{a.values.shape} vs {b.values.shape}"
        )
    return float(np.mean(a.values > b.values))


def interference_probability_mc(
    a: GaussianSummary, b: GaussianSummary, trials: int = 100_000, seed: int = 0
) -> float:
    """P(A > B) estimated from paired draws of the two Gaussians."""
    rng = np.random.default_rng(seed)
    da = a.mean + a.std * rng.standard_normal(trials)
    db = b.mean + b.std * rng.standard_normal(trials)
    return float(np.mean(da > db))

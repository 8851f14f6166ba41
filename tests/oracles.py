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
    rmse_summary_from_offsets,
)
from magicbarrier import mc
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
    categories = range(scale.min_category, scale.max_category + 1)
    for multiset in itertools.combinations_with_replacement(categories, t):
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


def block_draws(master_seed: int, tau: int, n_pairs: int) -> np.ndarray:
    """The Monte-Carlo kernel's standard-normal draws for trials 0..tau-1,
    shape (tau, N), drawn block by block: block b is ``mc._draw_block`` at
    its first trial ``b * block``, with ``block = max(1, _BLOCK_ELEMENTS // N)``
    read at call time, so a patched block size applies."""
    block = max(1, mc._BLOCK_ELEMENTS // n_pairs)
    return np.concatenate(
        [
            mc._draw_block(master_seed, k0, min(block, tau - k0), n_pairs)
            for k0 in range(0, tau, block)
        ]
    )


def argsort_ordering_frequencies(blocks, k: int, tau: int) -> dict:
    """Relative frequency of each ordering of the columns of the (k, trials in
    block) ``blocks``, sorted by ordering: a stable argsort per block, then
    one integer code per trial where k**k fits intp (np.unique(axis=1) where
    it does not), counted in a dict, as ``rank_distribution`` counted before
    it ranked by comparisons."""
    counts: dict[tuple[int, ...], int] = {}
    for values in blocks:
        order = np.argsort(values, axis=0, kind="stable")
        if k**k <= np.iinfo(np.intp).max:
            codes = np.ravel_multi_index(tuple(order), (k,) * k)
            _, first, block_counts = np.unique(
                codes, return_index=True, return_counts=True
            )
            orderings = order[:, first]
        else:
            orderings, block_counts = np.unique(order, axis=1, return_counts=True)
        for column, count in zip(orderings.T, block_counts):
            ordering = tuple(column.tolist())
            counts[ordering] = counts.get(ordering, 0) + int(count)
    return {ordering: count / tau for ordering, count in sorted(counts.items())}


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


def shared_draw_precedence(variances, offsets_a, offsets_b) -> float:
    """P(RMSE_a < RMSE_b) for two systems scored on one shared draw of the
    pair ratings, with offsets ``means - predictions``. The difference of
    their N * RMSE^2 values, 2 d.(o_a - o_b) + o_a.o_a - o_b.o_b for the
    deviations d ~ N(0, diag(variances)), is Gaussian, so the probability is
    one Phi value; the benchmark's rank check uses the same formula."""
    s2 = np.asarray(variances, dtype=np.float64)
    oa = np.asarray(offsets_a, dtype=np.float64)
    ob = np.asarray(offsets_b, dtype=np.float64)
    gap = float(np.sum(ob * ob - oa * oa))
    spread = 2.0 * math.sqrt(float(np.sum(s2 * (oa - ob) ** 2)))
    return 0.5 * math.erfc(-gap / (spread * math.sqrt(2.0)))


def alternating_offsets(level: float, n: int) -> np.ndarray:
    """Per-pair offsets of magnitude ``level`` with alternating sign."""
    return level * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)


def ranking_error_per_pair(base_variances, delta, offset, noise_scale=1.0) -> float:
    """One point of :func:`ranking_error_curves` with the two systems'
    offsets built as per-pair arrays of alternating sign, each put through
    the per-pair closed form :func:`rmse_summary_from_offsets`."""
    n = len(base_variances)
    first, second = (
        rmse_summary_from_offsets(base_variances, alternating_offsets(level * noise_scale, n))
        for level in (offset, offset + delta)
    )
    return interference_probability(first, second)


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

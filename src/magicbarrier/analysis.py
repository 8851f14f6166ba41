"""Working with metric distributions: divergence measures, interference
probabilities, decision criteria, sensitivity sweeps, and ranking studies.

Once a metric score is a distribution instead of a number, three question
families arise and are answered here:

- goodness: how close is a simulated metric density to its closed-form
  Gaussian approximation (Kullback-Leibler and Jensen-Shannon divergences on
  shared bins);
- interference: how likely is it that one metric distribution exceeds
  another, in particular that the Magic Barrier exceeds a system's RMSE, and
  whether the gap is wide enough that the distribution view can be skipped
  (the 99%-confidence-interval criterion);
- ranking stability: how often the worse of two systems wins a point-paradigm
  comparison, as a function of their distance from the barrier, and how the
  full ordering of several systems fluctuates across simulated evaluations on
  shared draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Mapping, Sequence

import numpy as np

from .core import (
    GaussianSummary,
    MetricKind,
    PairTable,
    PredictorVector,
    ScaleSpec,
    as_float_array,
    gaussian_cdf,
    variance_bounds,
)
from .approx import rmse_summary_from_offsets
from .mc import MCConfig, MetricSample, simulate_metric_shared

__all__ = [
    "DiscreteDensity",
    "SweepRow",
    "RankCurvePoint",
    "kl_divergence",
    "jsd",
    "interference_probability",
    "ImprovementDecision",
    "improvement_criterion",
    "sensitivity_sweep",
    "alternating_offsets",
    "ranking_error_curves",
    "rank_distribution",
]


@dataclass(frozen=True)
class DiscreteDensity:
    """Probability masses over shared bin edges."""

    edges: np.ndarray
    masses: np.ndarray

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=np.float64)
        masses = np.asarray(self.masses, dtype=np.float64)
        if edges.ndim != 1 or masses.ndim != 1 or edges.size != masses.size + 1:
            raise ValueError(
                f"need len(edges) == len(masses) + 1, got {edges.size} and {masses.size}"
            )
        # written as negations of the valid case so that NaN is refused too
        if not np.all(np.diff(edges) > 0.0):
            raise ValueError("edges must be strictly increasing")
        if not np.all(masses >= 0.0):
            raise ValueError("masses must be >= 0")
        total = float(masses.sum())
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"masses must sum to 1 within 1e-9, got {total}")
        edges.setflags(write=False)
        masses.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "masses", masses)

    @classmethod
    def from_histogram(cls, edges, heights) -> "DiscreteDensity":
        """From a normed histogram (density heights), as produced by sampling."""
        edges = np.asarray(edges, dtype=np.float64)
        heights = np.asarray(heights, dtype=np.float64)
        masses = heights * np.diff(edges)
        total = masses.sum()
        if total <= 0.0:
            raise ValueError("histogram carries no mass")
        return cls(edges=edges, masses=masses / total)

    @classmethod
    def from_metric_sample(cls, sample: MetricSample) -> "DiscreteDensity":
        return cls.from_histogram(sample.bin_edges, sample.bin_heights)

    @classmethod
    def from_gaussian(cls, g: GaussianSummary, edges) -> "DiscreteDensity":
        """Gaussian discretized onto ``edges`` and renormalized over their span.

        The mass outside the edge span is dropped; pick edges covering the
        bulk of the distribution (histogram edges of a large sample do).
        """
        edges = np.asarray(edges, dtype=np.float64)
        cdf = gaussian_cdf(g, edges)
        masses = np.diff(cdf)
        total = masses.sum()
        if total <= 0.0:
            raise ValueError("edges carry no Gaussian mass")
        return cls(edges=edges, masses=masses / total)

    def to_json_dict(self) -> dict:
        return {"edges": self.edges.tolist(), "masses": self.masses.tolist()}


def _require_same_edges(p: DiscreteDensity, q: DiscreteDensity) -> None:
    if p.edges.shape != q.edges.shape or not np.array_equal(p.edges, q.edges):
        raise ValueError("densities must share identical bin edges")


def kl_divergence(p: DiscreteDensity, q: DiscreteDensity) -> float:
    """KL divergence in bits; +inf where q vanishes on the support of p."""
    _require_same_edges(p, q)
    support = p.masses > 0.0
    if np.any(q.masses[support] == 0.0):
        return math.inf
    pm = p.masses[support]
    qm = q.masses[support]
    return float(np.sum(pm * np.log2(pm / qm)))


def jsd(p: DiscreteDensity, q: DiscreteDensity) -> float:
    """Jensen-Shannon divergence against the equal mixture, in bits, so in
    [0, 1]."""
    _require_same_edges(p, q)
    mixture = DiscreteDensity(p.edges, 0.5 * (p.masses + q.masses))
    return 0.5 * kl_divergence(p, mixture) + 0.5 * kl_divergence(q, mixture)


def interference_probability(a: GaussianSummary, b: GaussianSummary) -> float:
    """P(A > B) for independent Gaussian metric distributions.

    The closed form is one CDF evaluation: the difference is Gaussian, so
    ``P(A > B) = Phi((a.mean - b.mean) / sqrt(a.variance + b.variance))``.
    With both variances zero the comparison is deterministic: 0 or 1 by mean
    order, 0.5 on a tie.
    """
    total_var = a.variance + b.variance
    if total_var == 0.0:
        if a.mean == b.mean:
            return 0.5
        return 1.0 if a.mean > b.mean else 0.0
    diff = GaussianSummary(0.0, 1.0)
    return diff.cdf((a.mean - b.mean) / math.sqrt(total_var))


@dataclass(frozen=True)
class ImprovementDecision:
    """Verdict of the 99%-confidence-interval overlap rule.

    ``differentiated_analysis_needed`` is True when the intervals intersect,
    i.e. the observed score may already be dominated by rating uncertainty so
    a probabilistic comparison is warranted. ``margin`` is the gap between the
    lower interval edge of the system score and the upper edge of the barrier
    (positive means clearly separated, improvement detectable). The
    ``simplified_*`` fields carry the mean-gap shortcut
    ``rmse.mean - mb.mean < 6 * sqrt(mb.variance)``, valid when both
    distributions have comparable spread.
    """

    differentiated_analysis_needed: bool
    margin: float
    simplified_gap: float
    simplified_threshold: float
    simplified_needed: bool

    def to_json_dict(self) -> dict:
        return {
            "differentiated_analysis_needed": self.differentiated_analysis_needed,
            "margin": self.margin,
            "simplified": {
                "gap": self.simplified_gap,
                "threshold": self.simplified_threshold,
                "needed": self.simplified_needed,
            },
        }


def improvement_criterion(
    mb: GaussianSummary, rmse: GaussianSummary
) -> ImprovementDecision:
    """Check whether the barrier's and the system's 99% intervals intersect."""
    mb_upper = mb.mean + 3.0 * mb.std
    rmse_lower = rmse.mean - 3.0 * rmse.std
    gap = rmse.mean - mb.mean
    threshold = 6.0 * mb.std
    return ImprovementDecision(
        differentiated_analysis_needed=mb_upper > rmse_lower,
        margin=rmse_lower - mb_upper,
        simplified_gap=gap,
        simplified_threshold=threshold,
        simplified_needed=gap < threshold,
    )


@dataclass(frozen=True)
class SweepRow:
    axis_value: float
    mean: float
    variance: float
    envelope_min_mean: float
    envelope_max_mean: float
    envelope_min_variance: float
    envelope_max_variance: float


def sensitivity_sweep(
    axis: Literal["pair_count", "variance"],
    grid: Sequence[float],
    fixed: float,
    scale: ScaleSpec,
) -> list[SweepRow]:
    """Barrier moments over a grid of pair counts or homogeneous variances.

    ``axis="pair_count"`` varies N at the fixed homogeneous variance;
    ``axis="variance"`` varies the homogeneous variance at the fixed N. Each
    row also carries the envelope attainable on the scale: the barrier
    computed at the scale's minimum and maximum nonzero variance for the
    row's pair count. N pairs of one variance v have the closed form mean
    sqrt(v) and variance v/(2N), so no row builds a per-pair array.
    """
    if len(grid) == 0:
        raise ValueError("grid must be nonempty")
    if not all(math.isfinite(v) for v in (*grid, fixed)):
        raise ValueError("grid and fixed values must be finite")
    var_min, var_max = variance_bounds(scale)
    rows: list[SweepRow] = []
    for value in grid:
        if axis == "pair_count":
            n = int(value)
            variance = float(fixed)
        elif axis == "variance":
            n = int(fixed)
            variance = float(value)
        else:
            raise ValueError(f"unknown axis: {axis!r}")
        if n < 1:
            raise ValueError(f"pair count must be >= 1, got {n}")
        if variance <= 0.0:
            raise ValueError(f"homogeneous variance must be > 0, got {variance}")
        rows.append(
            SweepRow(
                axis_value=float(value),
                mean=math.sqrt(variance),
                variance=variance / (2.0 * n),
                envelope_min_mean=math.sqrt(var_min),
                envelope_max_mean=math.sqrt(var_max),
                envelope_min_variance=var_min / (2.0 * n),
                envelope_max_variance=var_max / (2.0 * n),
            )
        )
    return rows


@dataclass(frozen=True)
class RankCurvePoint:
    delta: float
    offset: float
    error_probability: float


def alternating_offsets(level: float, n: int) -> np.ndarray:
    """Per-pair offsets of magnitude ``level`` with alternating sign."""
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return level * signs


def ranking_error_curves(
    base_variances: Sequence[float],
    relative_differences: Sequence[float],
    offsets: Sequence[float],
    noise_scale: float = 1.0,
) -> list[RankCurvePoint]:
    """Point-paradigm error probability per (delta, offset) grid point.

    Two copies of the optimal recommender on pairs with ``base_variances``
    are distorted by deterministic per-pair predictor offsets: the first by
    ``offset * noise_scale``, the second by ``(offset + delta) *
    noise_scale``, with alternating sign across pairs so no overall mean
    shift is introduced. ``offset`` (nondecreasing over the grid) tunes the
    distance from the barrier, ``delta`` the systems' relative difference.

    The second system is worse by construction, so the error probability is
    the chance its RMSE realization undercuts the first system's:
    ``P(RMSE_2 < RMSE_1)`` from the two closed-form summaries. Identical
    systems (``delta = 0``) give 0.5; growing either the offset or the delta
    widens the mean gap and drives the error toward 0.
    """
    if not len(relative_differences):
        raise ValueError("need at least one relative difference")
    # written as negations of the valid case so that NaN is refused too
    if not all(0.0 <= d < math.inf for d in relative_differences):
        raise ValueError("relative differences must be finite and >= 0")
    if not len(offsets):
        raise ValueError("need at least one offset")
    if any(b < a for a, b in zip(offsets, offsets[1:])):
        raise ValueError("offsets must be nondecreasing")
    if not all(0.0 <= o < math.inf for o in offsets):
        raise ValueError("offsets must be finite and >= 0")
    if not len(base_variances):
        raise ValueError("need at least one base variance")
    if not 0.0 < noise_scale < math.inf:
        raise ValueError(f"noise_scale must be finite and > 0, got {noise_scale}")
    base = as_float_array(base_variances, "base_variances")
    n = base.size
    points: list[RankCurvePoint] = []
    for delta in relative_differences:
        for offset in offsets:
            d1 = alternating_offsets(offset * noise_scale, n)
            d2 = alternating_offsets((offset + delta) * noise_scale, n)
            s1 = rmse_summary_from_offsets(base, d1)
            s2 = rmse_summary_from_offsets(base, d2)
            points.append(
                RankCurvePoint(
                    delta=float(delta),
                    offset=float(offset),
                    error_probability=interference_probability(s1, s2),
                )
            )
    return points


def rank_distribution(
    systems: Sequence[PredictorVector],
    dists: PairTable,
    metric: MetricKind,
    cfg: MCConfig,
    workers: int = 1,
) -> Mapping[tuple[int, ...], float]:
    """Probability of each observed ranking of the given systems.

    All systems are evaluated per trial on one shared draw of the pair
    ratings (the comparison is between systems serving the same users and
    items, so outcome noise must be shared). The returned map sends an
    ordering, best system first by metric value, to its relative frequency;
    values sum to 1. Ties within a trial, a measure-zero event for
    nonconstant draws, are broken by system index.
    """
    if not systems:
        raise ValueError("need at least one system")
    values = simulate_metric_shared(dists, systems, metric, cfg, workers=workers)
    order = np.argsort(values, axis=0, kind="stable")
    k = len(systems)
    if k**k <= np.iinfo(np.intp).max:
        # one integer code per trial's ordering: a 1-D unique over codes is
        # ~100x faster than np.unique(axis=1) at 4 systems x 200k trials
        codes = np.ravel_multi_index(tuple(order), (k,) * k)
        _, first, counts = np.unique(codes, return_index=True, return_counts=True)
        orderings = order[:, first]
    else:
        orderings, counts = np.unique(order, axis=1, return_counts=True)
    tau = cfg.trials
    return {
        tuple(column.tolist()): int(count) / tau
        for column, count in zip(orderings.T, counts)
    }

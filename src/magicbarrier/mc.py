"""Monte-Carlo convolution of per-pair rating distributions into metric samples.

A composed metric such as the RMSE is a function of N random ratings; its
distribution is the convolution of the per-pair densities through the metric.
This engine approximates that convolution by simulation: per trial k it draws
one rating realization per pair, evaluates the metric once, and summarises the
resulting sample with moments and a normed histogram.

Reproducibility contract
------------------------
Results are bit-identical across runs and across worker counts for a fixed
:class:`MCConfig`. Each trial owns a fixed, counter-addressed slice of a
single Philox stream keyed by ``master_seed``: trial k consumes exactly
``ceil(N/4)*4`` stream outputs starting at output index ``k * ceil(N/4) * 4``
(Philox counters address blocks of four 64-bit outputs, hence the padding).
Uniform outputs are mapped to normals through the inverse CDF, whose
consumption is fixed per draw, so a trial's draws depend only on
``(master_seed, k, N)`` and never on batching, scheduling, or thread count.

Uniform draws of exactly 0.0 (probability 2^-53 per draw) are clipped to
2^-53 before the inverse CDF to keep normals finite.

Block sizing
------------
Trials are simulated in blocks, one block per task. A block holds
``max(1, _BLOCK_ELEMENTS // (4 * ceil(N/4)))`` trials, so each of its
temporaries stays near ``_BLOCK_ELEMENTS`` float64 values (2 MiB,
cache-sized) whatever the pair count N. Memory is therefore O(N + K*tau)
for the per-pair vectors and the K systems' tau metric values, plus one
block per worker thread. The block size never changes a value: draws are
counter-addressed per trial and every reduction runs along one trial's row,
so each trial's metric depends on that trial alone.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtri

from .core import GaussianSummary, MetricKind, PairTable, PredictorVector

__all__ = [
    "MCConfig",
    "MetricSample",
    "optimal_predictors",
    "simulate_metric",
    "simulate_metric_shared",
]

MAX_DEFAULT_BINS = 512
# float64 elements per block temporary; trials per block follow from N
_BLOCK_ELEMENTS = 1 << 18
_MIN_UNIFORM = 2.0**-53


@dataclass(frozen=True)
class MCConfig:
    """Simulation size, histogram resolution and seed.

    ``bins=None`` selects ``ceil(sqrt(trials))`` capped at ``MAX_DEFAULT_BINS``.
    """

    trials: int
    bins: int | None = None
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.bins is not None and self.bins < 2:
            raise ValueError(f"bins must be >= 2, got {self.bins}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(
                f"master_seed must be in [0, 2**64), got {self.master_seed}"
            )

    @property
    def resolved_bins(self) -> int:
        if self.bins is not None:
            return self.bins
        return min(math.isqrt(self.trials - 1) + 1, MAX_DEFAULT_BINS)


@dataclass(frozen=True)
class MetricSample:
    """tau metric realizations plus moments and a normed histogram."""

    values: np.ndarray
    summary: GaussianSummary
    bin_edges: np.ndarray
    bin_heights: np.ndarray

    @classmethod
    def from_values(cls, values: np.ndarray, bins: int) -> "MetricSample":
        values = np.asarray(values, dtype=np.float64)
        values.setflags(write=False)
        mean = float(values.mean())
        # unbiased sample variance; a single trial carries no spread estimate
        var = float(values.var(ddof=1)) if values.size > 1 else 0.0
        heights, edges = np.histogram(values, bins=bins, density=True)
        heights.setflags(write=False)
        edges.setflags(write=False)
        return cls(
            values=values,
            summary=GaussianSummary(mean, var),
            bin_edges=edges,
            bin_heights=heights,
        )

    def to_json_dict(self, values_path: str | None = None) -> dict:
        doc = {
            "mean": self.summary.mean,
            "variance": self.summary.variance,
            "histogram": {
                "edges": self.bin_edges.tolist(),
                "heights": self.bin_heights.tolist(),
            },
        }
        if values_path is not None:
            doc["values_path"] = values_path
        return doc


def optimal_predictors(dists: PairTable, metric: MetricKind) -> PredictorVector:
    """Predictors of the metric-optimal recommender.

    The expected RMSE is minimised by the per-pair mean and the expected MAE
    by the per-pair median; under the symmetric Gaussian rating model both
    rules give the same prediction, the per-pair mean.
    """
    if not len(dists):
        raise ValueError("need at least one rating distribution")
    if not isinstance(metric, MetricKind):
        raise ValueError(f"unknown metric: {metric!r}")
    return PredictorVector(keys=dists.keys, values=dists.means)


def _trial_words(n_pairs: int) -> int:
    # Philox counters address 4-output blocks; pad each trial's budget so
    # every trial starts on a block boundary.
    return 4 * ((n_pairs + 3) // 4)


def _draw_block(
    master_seed: int, k0: int, n_trials: int, n_pairs: int
) -> np.ndarray:
    """Standard-normal draws for trials k0..k0+n_trials-1, shape (n_trials, N).

    The result is a writable view into one padded buffer; callers may
    transform it in place.
    """
    words = _trial_words(n_pairs)
    bg = np.random.Philox(
        key=np.array([master_seed, 0], dtype=np.uint64),
        counter=k0 * (words // 4),
    )
    u = np.random.Generator(bg).random(n_trials * words)
    u = u.reshape(n_trials, words)[:, :n_pairs]
    np.maximum(u, _MIN_UNIFORM, out=u)
    return ndtri(u, out=u)


def _metric_rows(resid: np.ndarray, metric: MetricKind) -> np.ndarray:
    """Per-row metric of ``resid``; overwrites ``resid``."""
    if metric is MetricKind.RMSE:
        return np.sqrt(np.mean(np.square(resid, out=resid), axis=1))
    if metric is MetricKind.MAE:
        return np.mean(np.abs(resid, out=resid), axis=1)
    raise ValueError(f"unknown metric: {metric!r}")


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def simulate_metric(
    dists: PairTable,
    predictors: PredictorVector,
    metric: MetricKind,
    cfg: MCConfig,
    workers: int = 1,
    clip_bounds: tuple[float, float] | None = None,
) -> MetricSample:
    """Sample the metric distribution of ``predictors`` over ``cfg.trials`` trials.

    Per trial, one rating per pair is drawn from its fitted Gaussian and the
    metric is evaluated against the predictions. Draws are not clipped to the
    rating scale by default (the Gaussian model has support on all reals);
    pass ``clip_bounds`` to study the effect of clipping.
    """
    values = simulate_metric_shared(
        dists, [predictors], metric, cfg, workers, clip_bounds
    )[0]
    return MetricSample.from_values(values, cfg.resolved_bins)


def simulate_metric_shared(
    dists: PairTable,
    predictor_list: Sequence[PredictorVector],
    metric: MetricKind,
    cfg: MCConfig,
    workers: int = 1,
    clip_bounds: tuple[float, float] | None = None,
) -> np.ndarray:
    """Metric realizations for several systems on shared per-trial draws.

    Returns an array of shape ``(len(predictor_list), cfg.trials)`` where
    column k was computed from one common draw of all pair ratings (common
    random numbers), which is what makes simulated rankings comparable. The
    kernel works in offset space: a draw's deviation from its pair mean is
    ``sigma * z``, its residual against a system adds that system's offsets
    ``means - predictions``, and clipping the rating to ``[lo, hi]`` clips
    the deviation to ``[lo - mean, hi - mean]``.
    """
    if not len(dists):
        raise ValueError("need at least one rating distribution")
    if not predictor_list:
        raise ValueError("need at least one predictor vector")
    means = dists.means
    offsets_list = []
    for p in predictor_list:
        p.check_aligned(dists)
        offsets_list.append(means - p.values)
    sigmas = np.sqrt(dists.variances)
    n_pairs = means.size
    tau = cfg.trials
    block = max(1, _BLOCK_ELEMENTS // _trial_words(n_pairs))
    out = np.empty((len(offsets_list), tau), dtype=np.float64)
    if clip_bounds is not None:
        lo = clip_bounds[0] - means
        hi = clip_bounds[1] - means

    def run_task(k0: int) -> None:
        nt = min(block, tau - k0)
        delta = _draw_block(cfg.master_seed, k0, nt, n_pairs)
        delta *= sigmas
        if clip_bounds is not None:
            np.clip(delta, lo, hi, out=delta)
        resid = np.empty((nt, n_pairs), dtype=np.float64)
        for row, offsets in enumerate(offsets_list):
            np.add(delta, offsets, out=resid)
            out[row, k0 : k0 + nt] = _metric_rows(resid, metric)

    starts = range(0, tau, block)
    # in-flight memory is one block per thread, and threads beyond the
    # usable CPUs or the tasks only add contention
    workers = min(workers, _usable_cpus(), len(starts))
    if workers <= 1:
        for k0 in starts:
            run_task(k0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_task, starts))
    return out

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
buffers stays near ``_BLOCK_ELEMENTS`` float64 values (2 MiB, cache-sized)
whatever the pair count N. Each thread allocates its buffers once, sized for
``min(block, tau)`` trials, and runs every block in views of them, so a fresh
process does not page-fault through new temporaries block after block.
Memory is therefore O(N + K*tau) for the per-pair vectors and the K
systems' tau metric values, plus one draw buffer per worker thread.

Unclipped RMSE scores every system from that buffer alone, through
``sum((d + o)^2) = sum(d^2) + 2*d.o + sum(o^2)`` for a trial's deviations d
and a system's offsets o: per block, one ``einsum`` (not a BLAS product,
whose sums may depend on the row count) gives the cross terms of the K'
systems with nonzero offsets, ``d`` is squared and averaged in place once,
and each value is ``sqrt(max(mean(d^2) + (2*d.o + sum(o^2))/N, 0))``, the
clamp covering the rounding of residuals that all but cancel. A system whose
offsets are all exactly zero (the optimal predictor) takes
``sqrt(mean(d^2))``, the bits of the residual formula: ``d + 0.0`` differs
from ``d`` only in the sign of a zero. MAE has no such expansion, and
clipped deviations have atoms at the scale ends, where a prediction at a
scale end leaves a residual of exactly zero that the expansion would reach
only through cancellation; both keep the residual formula, and with several
systems one residual buffer per thread, as the draws must survive every
system but the last, which works in the draw buffer itself.

The block size never changes a value: draws are counter-addressed per trial
and every reduction, the cross term included, runs along one trial's row,
so each trial's metric depends on that trial alone.
"""

from __future__ import annotations

import math
import os
import threading
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
    master_seed: int,
    k0: int,
    n_trials: int,
    n_pairs: int,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Standard-normal draws for trials k0..k0+n_trials-1, shape (n_trials, N).

    The result is a writable view into one padded buffer: the first
    ``n_trials * ceil(N/4)*4`` values of ``out`` (a contiguous float64
    vector) when given, else a new array. Callers may transform it in place.
    """
    words = _trial_words(n_pairs)
    bg = np.random.Philox(
        key=np.array([master_seed, 0], dtype=np.uint64),
        counter=k0 * (words // 4),
    )
    if out is not None:
        out = out[: n_trials * words]
    u = np.random.Generator(bg).random(n_trials * words, out=out)
    u = u.reshape(n_trials, words)[:, :n_pairs]
    np.maximum(u, _MIN_UNIFORM, out=u)
    return ndtri(u, out=u)


def _metric_rows(src: np.ndarray, dst: np.ndarray, metric: MetricKind) -> np.ndarray:
    """Per-row metric of the residuals ``src``; overwrites ``dst``, which may
    be ``src``."""
    if metric is MetricKind.RMSE:
        return np.sqrt(np.mean(np.square(src, out=dst), axis=1))
    if metric is MetricKind.MAE:
        return np.mean(np.abs(src, out=dst), axis=1)
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
    the deviation to ``[lo - mean, hi - mean]``. Unclipped RMSE expands each
    system's mean square around the deviations' own, so all systems share
    one square pass and one cross-term product per block; MAE and clipped
    runs form each system's residuals, in a per-thread residual buffer when
    several systems share the draws (see the module notes).
    """
    if not len(dists):
        raise ValueError("need at least one rating distribution")
    if not predictor_list:
        raise ValueError("need at least one predictor vector")
    for p in predictor_list:
        p.check_aligned(dists)
    means = dists.means
    offsets = means - np.array([p.values for p in predictor_list])
    # a system whose offsets are all zero scores the draws themselves
    moved = offsets.any(axis=1)
    sigmas = np.sqrt(dists.variances)
    n_pairs = means.size
    tau = cfg.trials
    block = max(1, _BLOCK_ELEMENTS // _trial_words(n_pairs))
    rows = min(block, tau)
    out = np.empty((len(offsets), tau), dtype=np.float64)
    last = len(offsets) - 1
    expand = metric is MetricKind.RMSE and clip_bounds is None
    if expand:
        shifts = offsets[moved]
        shift_squares = np.einsum("ij,ij->i", shifts, shifts)
    if clip_bounds is not None:
        lo = clip_bounds[0] - means
        hi = clip_bounds[1] - means
    # each thread's buffers, allocated on its first block and reused by the rest
    local = threading.local()

    def run_task(k0: int) -> None:
        nt = min(block, tau - k0)
        if not hasattr(local, "draws"):
            local.draws = np.empty(rows * _trial_words(n_pairs), dtype=np.float64)
            # the draws must survive every residual pass but the last, which
            # works in the draw block itself
            local.resid = (
                np.empty(rows * n_pairs, dtype=np.float64) if last and not expand else None
            )
        delta = _draw_block(cfg.master_seed, k0, nt, n_pairs, out=local.draws)
        delta *= sigmas
        if expand:
            # einsum, not BLAS matmul: its sums do not depend on the row count
            terms = np.einsum("ij,kj->ik", delta, shifts)
            msq = np.mean(np.square(delta, out=delta), axis=1)
            out[~moved, k0 : k0 + nt] = np.sqrt(msq)
            # mean((d + o)^2) = mean(d^2) + (2 d.o + o.o)/N, clamped at 0
            # against rounding where d + o nearly cancels
            terms = msq[:, None] + (2.0 * terms + shift_squares) / n_pairs
            out[moved, k0 : k0 + nt] = np.sqrt(np.maximum(terms, 0.0)).T
            return
        if clip_bounds is not None:
            np.clip(delta, lo, hi, out=delta)
        resid = local.resid[: nt * n_pairs].reshape(nt, n_pairs) if last else None
        for row in range(len(offsets)):
            dst = resid if row < last else delta
            src = np.add(delta, offsets[row], out=dst) if moved[row] else delta
            out[row, k0 : k0 + nt] = _metric_rows(src, dst, metric)

    starts = range(0, tau, block)
    # in-flight memory is one or two blocks per thread, and threads beyond the
    # usable CPUs or the tasks only add contention
    workers = min(workers, _usable_cpus(), len(starts))
    if workers <= 1:
        for k0 in starts:
            run_task(k0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_task, starts))
    return out

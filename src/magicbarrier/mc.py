"""Monte-Carlo convolution of per-pair rating distributions into metric samples.

A composed metric such as the RMSE is a function of N random ratings; its
distribution is the convolution of the per-pair densities through the metric.
This engine approximates that convolution by simulation: per trial k it draws
one rating realization per pair, evaluates the metric once, and summarises the
resulting sample with moments and a normed histogram.

Reproducibility contract
------------------------
Results are bit-identical across runs and across worker counts for a fixed
:class:`MCConfig`. Each block of trials (see below) draws from its own SFC64
stream, seeded by ``SeedSequence(master_seed, spawn_key=(k0,))`` for its
first trial k0: the first ``n_trials * N`` ziggurat normals (Marsaglia &
Tsang 2000), row by row. Blocks start at multiples of the block size, so a
trial's draws depend only on ``(master_seed, k, N)``, and a run of tau
trials is the first tau trials of any longer run. The streams are
independent as numpy's spawned streams are (seed and key hashed into a
256-bit state), not disjoint by construction; unlike a flat ``[seed, k0]``
list, a spawn key cannot alias two keys. Ziggurat consumes a varying
number of outputs per normal, so the block size is part of the stream
definition: changing ``_BLOCK_ELEMENTS`` changes the values.

Block sizing
------------
Trials are simulated in blocks, one block per task. A block holds
``max(1, _BLOCK_ELEMENTS // N)`` trials, so each of its buffers stays near
``_BLOCK_ELEMENTS`` float64 values (2 MiB, cache-sized) whatever the pair
count N. Each thread allocates its buffers once, sized for
``min(block, tau)`` trials, and runs every block in views of them, so a fresh
process does not page-fault through new temporaries block after block.
Each block's K metric rows come out as a new (K, trials in block) array, in
trial order; threads work at most two blocks per thread ahead of the
consumer. :func:`simulate_metric_shared` copies them into its K x tau
result, so it holds O(N + K*tau) and, per worker thread, one draw buffer
(plus one residual buffer with several systems);
``analysis.rank_distribution`` reduces each block to ordering counts as it
arrives, so for MAE it holds only the blocks in flight.

Every system is scored from its residuals ``d + o`` (a trial's deviations d
from the pair means plus the system's offsets o), formed in the residual
buffer, except the last system's, which works in the draw buffer once the
draws are no longer needed. The optimal predictor's zero offsets take the
add too: skipping it would save about 2% of a one-system ``simulate``.

Rank's RMSE stream
------------------
For unclipped RMSE every system shares ``sum(d^2)``, so
``analysis.rank_distribution`` orders them by ``2*d.o + o.o``, linear in the
draws: the cross terms of the K' distinct rows ``sigma * o`` are jointly
Gaussian. Their Gram matrix has the upper-triangular factor R, built once by
modified Gram-Schmidt in einsum (no LAPACK), in which a dependent row gets a
zero pivot and a zero row; so does the zero row of a system that does not
move. A trial draws r normals w, not N, where r is the rank of the K' rows
(R's nonzero pivots), and takes its cross terms as ``w @ R`` over R's
nonzero rows (ufuncs in a fixed order): exact in law, not the kernel's
values. Offsets along one pattern, such as constant shifts, draw one normal
whatever K'; linearly independent rows skip no pivot and draw all K'. A
block's K score rows are gathered from its cross terms in one take, then
doubled and shifted by ``o.o`` in place: no mask, repeat or per-system copy.
A block holds ``max(1, _RANK_BLOCK_ELEMENTS // K)`` trials
(4,096 at K = 4) and draws from the ``(master_seed, k0)`` stream that
:func:`simulate_metric_shared` uses for its block at k0. The blocks run one
after another on the calling thread, one block in memory at a time: each is
a few small numpy calls that hold the interpreter lock for most of their
time, so a thread pool adds hand-offs and contention, and no speed once
the orderings are counted without a sort.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import GaussianSummary, MetricKind, PairTable, PredictorVector

__all__ = [
    "MCConfig",
    "MetricSample",
    "optimal_predictors",
    "simulate_metric",
    "simulate_metric_shared",
]

MAX_DEFAULT_BINS = 512
# float64 elements per block temporary, which fixes the streams (module notes)
_BLOCK_ELEMENTS = 1 << 18
# score values per block of rank's RMSE path, which fixes its streams
_RANK_BLOCK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class MCConfig:
    """Simulation size and seed, which together fix the simulated values."""

    trials: int
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(
                f"master_seed must be in [0, 2**64), got {self.master_seed}"
            )


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


def _draw_block(
    master_seed: int,
    k0: int,
    n_trials: int,
    n_pairs: int,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Standard-normal draws for the block of trials k0..k0+n_trials-1, shape
    (n_trials, N): the first ``n_trials * N`` normals of the SFC64 stream
    seeded by ``SeedSequence(master_seed, spawn_key=(k0,))``, written to the
    start of ``out`` (a contiguous float64 vector) when given. Callers may
    transform them in place."""
    bg = np.random.SFC64(np.random.SeedSequence(master_seed, spawn_key=(k0,)))
    size = n_trials * n_pairs
    z = np.random.Generator(bg).standard_normal(
        size, out=None if out is None else out[:size]
    )
    return z.reshape(n_trials, n_pairs)


def _offsets(dists: PairTable, predictor_list: Sequence[PredictorVector]) -> np.ndarray:
    """The (K, N) offsets ``means - predictions``, once the systems are
    checked to be nonempty, aligned with ``dists`` and near enough to the
    means that each system's sum of squared offsets is finite: past float64
    its RMSE is inf, which ``rank`` would tie by index and ``simulate`` could
    not bin."""
    if not len(dists):
        raise ValueError("need at least one rating distribution")
    if not predictor_list:
        raise ValueError("need at least one predictor vector")
    for p in predictor_list:
        p.check_aligned(dists)
    with np.errstate(over="ignore"):
        offsets = dists.means - np.array([p.values for p in predictor_list])
        finite = np.isfinite(np.einsum("ij,ij->i", offsets, offsets))
    if not finite.all():
        raise ValueError(
            f"predictions {np.argmin(finite) + 1} of {finite.size} lie so far from "
            "the pair means that their squared offsets overflow float64"
        )
    return offsets


def _in_trial_order(
    run_task: Callable[[int], np.ndarray], tau: int, block: int, workers: int
) -> Iterator[np.ndarray]:
    """``run_task(k0)`` for the blocks starting at k0 = 0, block, 2*block, ...
    below tau, yielded in trial order from up to ``workers`` threads: the
    N-draw kernel's blocks, whose large numpy calls release the interpreter
    lock (rank's RMSE blocks run on the calling thread, module notes)."""
    starts = range(0, tau, block)
    # in-flight memory is one or two blocks per thread, and threads beyond the
    # usable CPUs or the tasks only add contention
    workers = min(workers, _usable_cpus(), len(starts))
    if workers <= 1:
        yield from map(run_task, starts)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # a window of 2 blocks per thread keeps every thread busy while the
        # consumer works, without queueing the whole run (pool.map would)
        pending = deque()
        for k0 in starts:
            pending.append(pool.submit(run_task, k0))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _metric_rows(resid: np.ndarray, metric: MetricKind) -> np.ndarray:
    """Per-row metric of the residuals ``resid``, which it overwrites."""
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
    bins: int | None = None,
) -> MetricSample:
    """Sample the metric distribution of ``predictors`` over ``cfg.trials`` trials.

    Per trial, one rating per pair is drawn from its fitted Gaussian and the
    metric is evaluated against the predictions. Draws are not clipped to the
    rating scale by default (the Gaussian model has support on all reals);
    pass ``clip_bounds`` to study the effect of clipping. The histogram has
    ``bins`` bins; ``None`` selects ``ceil(sqrt(trials))`` within
    ``[2, MAX_DEFAULT_BINS]``: one bin would hold every sample's mass, and any
    density on its edges too.
    """
    if bins is None:
        bins = min(max(math.isqrt(cfg.trials - 1) + 1, 2), MAX_DEFAULT_BINS)
    elif bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    values = simulate_metric_shared(
        dists, [predictors], metric, cfg, workers, clip_bounds
    )[0]
    return MetricSample.from_values(values, bins)


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
    the deviation to ``[lo - mean, hi - mean]``. Each system's residuals are
    formed and reduced in turn, in a per-thread residual buffer when several
    systems share the draws (see the module notes).
    """
    out = np.empty((len(predictor_list), cfg.trials), dtype=np.float64)
    k0 = 0
    for values in _metric_blocks(
        dists, predictor_list, metric, cfg, workers, clip_bounds
    ):
        out[:, k0 : k0 + values.shape[1]] = values
        k0 += values.shape[1]
    return out


def _metric_blocks(
    dists: PairTable,
    predictor_list: Sequence[PredictorVector],
    metric: MetricKind,
    cfg: MCConfig,
    workers: int = 1,
    clip_bounds: tuple[float, float] | None = None,
) -> Iterator[np.ndarray]:
    """The metric values of :func:`simulate_metric_shared`, one new
    ``(len(predictor_list), trials in block)`` array per block, in trial
    order."""
    means = dists.means
    offsets = _offsets(dists, predictor_list)
    sigmas = np.sqrt(dists.variances)
    n_pairs = means.size
    tau = cfg.trials
    block = max(1, _BLOCK_ELEMENTS // n_pairs)
    rows = min(block, tau)
    last = len(offsets) - 1
    if clip_bounds is not None:
        lo = clip_bounds[0] - means
        hi = clip_bounds[1] - means
    # each thread's buffers, allocated on its first block and reused by the rest
    local = threading.local()

    def run_task(k0: int) -> np.ndarray:
        nt = min(block, tau - k0)
        if not hasattr(local, "draws"):
            local.draws = np.empty(rows * n_pairs, dtype=np.float64)
            # the draws must survive every residual pass but the last, which
            # works in the draw block itself
            local.resid = np.empty(rows * n_pairs, dtype=np.float64) if last else None
        values = np.empty((len(offsets), nt), dtype=np.float64)
        delta = _draw_block(cfg.master_seed, k0, nt, n_pairs, out=local.draws)
        delta *= sigmas
        if clip_bounds is not None:
            np.clip(delta, lo, hi, out=delta)
        resid = local.resid[: nt * n_pairs].reshape(nt, n_pairs) if last else None
        for row in range(len(offsets)):
            dst = resid if row < last else delta
            values[row] = _metric_rows(np.add(delta, offsets[row], out=dst), metric)
        return values

    yield from _in_trial_order(run_task, cfg.trials, block, workers)


def _gram_factor(rows: np.ndarray) -> np.ndarray:
    """Upper-triangular R with ``R.T @ R = rows @ rows.T`` up to rounding, by
    modified Gram-Schmidt on the rows in einsum, not LAPACK, so that its bits
    do not depend on the numpy build. A row in the span of the rows before it
    gets a zero pivot and leaves its row of R zero."""
    m, n = rows.shape
    v = rows.copy()
    factor = np.zeros((m, m))
    # what rounding leaves of a dependent row stays below this share of its norm
    floors = m * n * np.finfo(np.float64).eps * np.sqrt(np.einsum("ij,ij->i", rows, rows))
    for j in range(m):
        pivot = math.sqrt(np.einsum("i,i->", v[j], v[j]))
        if pivot <= floors[j]:
            continue
        q = v[j] / pivot
        factor[j, j] = pivot
        factor[j, j + 1 :] = np.einsum("i,ki->k", q, v[j + 1 :])
        v[j + 1 :] -= factor[j, j + 1 :, None] * q
    return factor


def _rmse_score_blocks(
    dists: PairTable,
    predictor_list: Sequence[PredictorVector],
    cfg: MCConfig,
) -> Iterator[np.ndarray]:
    """Scores ``2*d.o + o.o`` (N * RMSE^2 less the shared ``sum(d^2)``) that
    order the systems as unclipped RMSE does, from one normal per trial for
    each nonzero pivot of the distinct offset rows' factor, i.e. the rank of
    those rows (module notes): one new (K, trials in block) array per block,
    in trial order, on the calling thread. Each block accumulates the cross
    terms ``d.o`` of the distinct rows over the kept pivots (a system that
    does not move has a zero row, so no pivot and zero cross terms), gathers
    one row per system, and doubles and adds ``o.o`` in place."""
    offsets = _offsets(dists, predictor_list)
    # equal offsets share one factor row, so identical systems tie; a dict of
    # row bytes, as np.unique(axis=0) builds a dtype with N fields
    first: dict[bytes, int] = {}
    column = [first.setdefault(o.tobytes(), len(first)) for o in offsets]
    basis = np.sqrt(dists.variances) * offsets[[column.index(j) for j in range(len(first))]]
    factor = _gram_factor(basis)
    # a dependent or zero row has a zero factor row: only nonzero pivots draw
    pivots = np.flatnonzero(np.diagonal(factor)).tolist()
    squares = np.einsum("ij,ij->i", offsets, offsets)[:, None]
    block = max(1, _RANK_BLOCK_ELEMENTS // len(offsets))

    for k0 in range(0, cfg.trials, block):
        nt = min(block, cfg.trials - k0)
        # one contiguous row of draws per pivot, a view when there is one
        w = np.ascontiguousarray(_draw_block(cfg.master_seed, k0, nt, len(pivots)).T)
        # not a BLAS product, so that a trial's bits do not depend on nt
        cross = np.zeros((len(basis), nt))
        term = np.empty_like(cross)
        for j, p in enumerate(pivots):
            cross[p:] += np.multiply(factor[p, p:, None], w[j], out=term[p:])
        # squares + 2*cross: doubling is exact and the sum commutes
        values = cross.take(column, axis=0)
        values *= 2.0
        values += squares
        yield values

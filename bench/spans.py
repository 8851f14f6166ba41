"""Out-of-process-code tracing: spans around the package's public functions.

The tracer wraps each public function at the name through which the package
looks it up (``analysis.rank_distribution`` calls ``simulate_metric_shared``
through ``analysis``'s own namespace, so the wrapper goes there) and restores
the originals afterwards. Nothing inside ``src/`` changes. Spans carry name,
start, end, parent span and iteration id; they are kept in memory and written
as JSON lines when the run ends.
"""

from __future__ import annotations

import inspect
import json
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    iteration: int
    error: bool
    attrs: dict


def _mc_attrs(call: dict, result) -> dict:
    # pair draws are computed from the arguments, not counted in the kernel
    return {"pairs": len(call["dists"]), "tau": call["cfg"].trials}


# (span name, module the name is looked up in, attribute path, attrs hook)
TARGETS = [
    ("cli.main", "cli", "main", None),
    ("ingest.parse_tensor", "ingest", "parse_tensor", lambda call, r: {"records": len(r)}),
    ("ingest.fit_pair_gaussians", "ingest", "fit_pair_gaussians", None),
    ("ingest.RatingTensor.pair_slices", "ingest", "RatingTensor.pair_slices", None),
    ("ingest.ks_normality_test", "ingest", "ks_normality_test", None),
    ("ingest.filter_nonvanishing", "ingest", "filter_nonvanishing", lambda call, r: {"kept": len(r)}),
    ("ingest.nonzero_variance_fraction_by_item", "ingest", "nonzero_variance_fraction_by_item", None),
    ("ingest.fit_exponential", "ingest", "fit_exponential", None),
    ("approx.magic_barrier_rmse", "approx", "magic_barrier_rmse", None),
    ("core.PredictorVector.check_aligned", "core", "PredictorVector.check_aligned", None),
    ("mc.simulate_metric", "mc", "simulate_metric", _mc_attrs),
    ("mc.simulate_metric_shared", "analysis", "simulate_metric_shared", _mc_attrs),
    ("mc.optimal_predictors", "mc", "optimal_predictors", None),
    ("mc.MetricSample.from_values", "mc", "MetricSample.from_values", None),
    ("analysis.rank_distribution", "analysis", "rank_distribution", None),
    ("analysis.interference_probability", "analysis", "interference_probability", None),
    ("analysis.improvement_criterion", "analysis", "improvement_criterion", None),
    ("analysis.jsd", "analysis", "jsd", None),
]
SIMULATE = ("mc.simulate_metric", "mc.simulate_metric_shared")
QUANTITIES = (("s", "s", "lower"), ("calls", "count", "lower"),
              ("self_s", "s", "lower"), ("errors", "count", "lower"))
COUNTERS = [
    ("ingest.parse_tensor.records", "count", "higher"),
    ("ingest.ks_tested_ratio", "ratio", "higher"),
    ("mc.pair_draws", "count", "higher"),
    ("mc.pair_draws_per_s", "1/s", "higher"),
    ("mc.uniforms_computed", "count", "lower"),
    ("mc.draw_use_ratio", "ratio", "higher"),
    ("mc.cpu_util", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
]
# every per-layer metric as (name, unit, better); BENCHMARK.json lists the same
PER_LAYER = [(f"{name}.{q}", unit, better) for name, *_ in TARGETS
             for q, unit, better in QUANTITIES] + COUNTERS


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[Span] = []
        self.iteration = -1
        self._local = threading.local()

    def _wrap(self, name, fn, attrs_hook):
        cpu = name in SIMULATE
        signature = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(index)
            c0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            result, error = None, True
            try:
                result = fn(*args, **kwargs)
                error = name == "cli.main" and result != 0
                return result
            finally:
                t1 = time.perf_counter()
                attrs = {"cpu_s": time.process_time() - c0} if cpu else {}
                if name == "cli.main":
                    attrs["cmd"] = signature.bind(*args, **kwargs).arguments["argv"][0]
                if attrs_hook is not None and not error:
                    attrs.update(attrs_hook(signature.bind(*args, **kwargs).arguments, result))
                stack.pop()
                tracer.spans[index] = Span(name, t0, t1, stack[-1] if stack else -1,
                                           tracer.iteration, error, attrs)

        return traced

    @contextmanager
    def installed(self, iteration: int):
        """Wrap every target for the duration of one iteration."""
        self.iteration = iteration
        restore = []
        for name, module, path, hook in TARGETS:
            owner = getattr(self.package, module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, hook))
            else:
                wrapped = self._wrap(name, raw, hook)
            setattr(owner, attr, wrapped)
            restore.append((owner, attr, raw))
        try:
            yield
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)

    def dump(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "iteration": s.iteration,
                                     "error": s.error, **s.attrs}) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def iteration_layers(spans: dict[int, Span]) -> tuple[dict, float]:
    """Per-layer quantities of one iteration's spans (keyed by span id), and
    the self-time gap: the sum of all self times minus the sum of root
    (``cli.main``) durations, zero when child spans nest in their parents.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans.values():
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {f"{name}.{q}": 0.0 for name, *_ in TARGETS for q, *_ in QUANTITIES}
    self_total = root_total = 0.0
    for i, s in spans.items():
        dur = s.end - s.start
        own = dur - _covered(children.get(i, []))
        out[f"{s.name}.s"] += dur
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += own
        out[f"{s.name}.errors"] += int(s.error)
        self_total += own
        if s.parent < 0:
            root_total += dur

    def root_cmd(s: Span) -> str:
        while s.parent >= 0:
            s = spans[s.parent]
        return s.attrs.get("cmd", "")

    kept = sum(s.attrs.get("kept", 0) for s in spans.values()
               if s.name == "ingest.filter_nonvanishing" and root_cmd(s) == "ingest")
    out["ingest.parse_tensor.records"] = float(sum(s.attrs.get("records", 0) for s in spans.values()))
    out["ingest.ks_tested_ratio"] = out["ingest.ks_normality_test.calls"] / kept if kept else 0.0
    sims = [s for s in spans.values() if s.name in SIMULATE and not s.error]
    draws = sum(s.attrs["pairs"] * s.attrs["tau"] for s in sims)
    uniforms = sum(s.attrs["tau"] * 4 * math.ceil(s.attrs["pairs"] / 4) for s in sims)
    wall = sum(s.end - s.start for s in sims)
    out["mc.pair_draws"] = float(draws)
    out["mc.pair_draws_per_s"] = draws / wall if wall else 0.0
    out["mc.uniforms_computed"] = float(uniforms)
    out["mc.draw_use_ratio"] = draws / uniforms if uniforms else 0.0
    out["mc.cpu_util"] = sum(s.attrs["cpu_s"] for s in sims) / wall if wall else 0.0
    return out, self_total - root_total


def by_iteration(spans: list[Span]) -> dict[int, dict[int, Span]]:
    groups: dict[int, dict[int, Span]] = {}
    for i, s in enumerate(spans):
        groups.setdefault(s.iteration, {})[i] = s
    return groups


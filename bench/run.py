#!/usr/bin/env python3
"""Pipeline benchmark: ingest, closed form, Monte-Carlo and ranking.

    python3 bench/run.py --workload barrier-mc --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --seed 7 --seconds 20       # every workload in turn
    python3 bench/run.py --self-test

Run from a source checkout (the package is imported from ``src/``). Inputs
are generated from ``--seed`` in a child process; each iteration then calls
``magicbarrier.cli.main(argv)`` in-process for the workload's subcommands,
one iteration after another (a closed loop with one client), and checks the
outputs against an oracle. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run. The last line of stdout
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See ``bench/README.md`` for what each metric means.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
SETUP_PROBES = 2  # extra fresh-process set-ups per run; setup_s is the median of 1 + this

# end-to-end metrics as (name, unit, better); BENCHMARK.json lists the same
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

from gen import SIZES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Runner:
    """One workload at one size: its inputs, the package and the loop."""

    def __init__(self, workload: str, seed: int, size: str, corrupt: bool) -> None:
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.params = SIZES[workload][size]
        self.corrupt = corrupt
        self.dir = WORK / f"{workload}-{size}-seed{seed}"
        self.calls = self.wl.calls(self.dir, self.params, seed)
        self.reference: dict[str, str] | None = None
        self.cli = None

    def import_package(self):
        sys.path.insert(0, str(SRC))
        import numpy  # noqa: F401
        import scipy.special  # noqa: F401
        import magicbarrier
        import magicbarrier.cli

        if Path(magicbarrier.__file__).resolve().parent != SRC / "magicbarrier":
            raise ImportError(f"magicbarrier imported from {magicbarrier.__file__}, not {SRC}")
        self.cli = magicbarrier.cli
        return magicbarrier

    def iterate(self) -> tuple[float, float, list[str]]:
        """One timed iteration: (wall seconds, CPU seconds, failure messages)."""
        sink = io.StringIO()
        codes = []
        gc.collect()  # start every iteration from the same heap state
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                for argv in self.calls:
                    codes.append(self.cli.main(argv))
        except Exception as exc:  # an iteration that raises counts as failed
            codes.append(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if any(code != 0 for code in codes):
            return wall, cpu, [f"exit codes {codes}: {sink.getvalue().strip()[-500:]}"]
        if self.corrupt:
            self.wl.corrupt(self.dir)
        try:
            errors = self.wl.check(self.dir, self.params)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            errors = [f"oracle could not read the outputs: {type(exc).__name__}: {exc}"]
        digests = {name: hashlib.sha256((self.dir / name).read_bytes()).hexdigest()
                   for name in self.wl.outputs}
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            errors.append("outputs differ from the first iteration's bytes")
        return wall, cpu, errors

    def numeric_digests(self) -> dict[str, str]:
        """SHA-256 of each output's numeric fields; path-bearing strings drop out."""
        def leaves(node, path):
            if isinstance(node, dict):
                for key in sorted(node):
                    yield from leaves(node[key], f"{path}/{key}")
            elif isinstance(node, list):
                for i, value in enumerate(node):
                    yield from leaves(value, f"{path}/{i}")
            elif isinstance(node, (int, float)):
                yield path, repr(node)

        out = {}
        for name in self.wl.outputs:
            doc = json.loads((self.dir / name).read_text(encoding="utf-8"))
            text = "\n".join(f"{p}={v}" for p, v in leaves(doc, ""))
            out[name] = hashlib.sha256(text.encode()).hexdigest()
        return out


def generate(workload: str, seed: int, size: str, out: Path) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH / "gen.py"), "--workload", workload,
                    "--seed", str(seed), "--size", size, "--out", str(out)],
                   check=True, timeout=120)
    return time.perf_counter() - t0


def setup_probe(args) -> int:
    """Fresh-process set-up: import plus one warm-up iteration, in seconds."""
    runner = Runner(args.workload, args.seed, args.size, corrupt=False)
    runner.import_package()
    runner.iterate()
    print(json.dumps({"setup_s": time.perf_counter() - T_START}))
    return 0


def provenance(runner: Runner, counts: dict, gen_s: float, setup_trials: list[float]) -> dict:
    import numpy
    import scipy

    def command(*argv):
        try:
            done = subprocess.run(argv, capture_output=True, text=True, timeout=30, cwd=ROOT)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    def cache(level):
        value = command("getconf", f"LEVEL{level}_CACHE_SIZE")
        return int(value) if value and value.isdigit() and int(value) > 0 else None

    # a checkout nested in some other repository must not report that one's commit
    top_and_head = (command("git", "rev-parse", "--show-toplevel", "HEAD") or "").splitlines()
    git_commit = top_and_head[1] if top_and_head[:1] == [str(ROOT)] else None
    source = hashlib.sha256()
    for path in sorted((SRC / "magicbarrier").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": runner.wl.name,
        "seed": runner.seed,
        "sizes": runner.params,
        "iterations": counts,
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": {"L2": cache(2), "L3": cache(3)},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit or "unknown (not a git checkout)",
        "source_sha256": source.hexdigest(),
        "units_per_iteration": {"value": runner.wl.units(runner.params),
                                "unit": runner.wl.unit, "computed": True},
        "input_generation_s": gen_s,
        "setup_trials_s": setup_trials,
        "output_numeric_sha256": runner.numeric_digests(),
    }


def run(args) -> int:
    if not (SRC / "magicbarrier" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'magicbarrier'}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, args.size, args.corrupt)
    gen_s = generate(args.workload, args.seed, args.size, runner.dir)
    print(f"input generation: {gen_s:.3f} s (excluded from setup_s)", file=sys.stderr)

    package = runner.import_package()
    failures: list[list[str]] = []
    _, _, errors = runner.iterate()  # untimed warm-up
    failures.append(errors)
    setup_trials = [time.perf_counter() - T_START - gen_s]
    if not args.trace:
        for _ in range(SETUP_PROBES):
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", args.workload,
                 "--seed", str(args.seed), "--size", args.size],
                capture_output=True, text=True, timeout=170, check=True)
            setup_trials.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])

    from spans import PER_LAYER, Tracer, by_iteration, iteration_layers

    tracer = Tracer(package)
    walls, cpus, traced_walls = [], [], []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(traced_walls) < len(walls)
        if traced:
            with tracer.installed(len(traced_walls)):
                wall, cpu, errors = runner.iterate()
            traced_walls.append(wall)
        else:
            wall, cpu, errors = runner.iterate()
            walls.append(wall)
            cpus.append(cpu)
        failures.append(errors)
        if time.perf_counter() - start >= args.seconds and len(traced_walls) >= args.trace:
            break

    attempted = len(failures)
    failed = sum(1 for f in failures if f)
    for messages in failures:
        for message in messages:
            print(f"check failed: {message}", file=sys.stderr)
    wall_s = statistics.median(walls)
    values = {
        "setup_s": statistics.median(setup_trials),
        "wall_s": wall_s,
        "cpu_s": statistics.median(cpus),
        "throughput_per_s": runner.wl.units(runner.params) / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {name: unit for name, unit, _ in END_TO_END}
    notes = {
        "setup_s": f"median of {len(setup_trials)} set-ups {[round(t, 4) for t in setup_trials]}",
        "wall_s": f"median of n={len(walls)}, min {min(walls):.4f}, max {max(walls):.4f}",
        "cpu_s": f"median of n={len(cpus)}",
        "throughput_per_s": f"{runner.wl.unit}s per wall second",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    lines = [(name, values[name], units[name], notes[name]) for name, *_ in END_TO_END]
    error_line = ("error_rate", failed / attempted, "ratio", f"{failed} of {attempted} iterations failed")
    metrics = {name: {"value": values[name], "unit": units[name]} for name, *_ in END_TO_END}

    if args.trace:
        groups = by_iteration(tracer.spans)
        per_iteration = []
        for iteration in sorted(groups):
            layers, gap = iteration_layers(groups[iteration])
            if abs(gap) > 1e-6 * max(1.0, layers["cli.main.s"]):
                print(f"warning: iteration {iteration}: self times miss cli.main.s by {gap:.3g} s",
                      file=sys.stderr)
            per_iteration.append(layers)
        layer_values = {k: statistics.median(d[k] for d in per_iteration) for k in per_iteration[0]}
        layer_values["trace.overhead"] = statistics.median(traced_walls) / wall_s - 1.0
        computed = {"mc.pair_draws", "mc.uniforms_computed", "mc.draw_use_ratio"}
        lines = [(n, layer_values[n], u, "computed from arguments" if n in computed else
                  f"median of {len(per_iteration)} traced iterations") for n, u, _ in PER_LAYER]
        metrics = {n: {"value": layer_values[n], "unit": u} for n, u, _ in PER_LAYER}
        tracer.dump(runner.dir / "spans.jsonl")

    counts = {"warmup": 1, "timed": len(walls), "traced": len(traced_walls),
              "attempted": attempted, "failed": failed,
              "wall_samples_s": walls, "traced_wall_samples_s": traced_walls}
    stamp = provenance(runner, counts, gen_s, setup_trials)
    (runner.dir / f"result-trace{args.trace}.json").write_text(
        json.dumps({"provenance": stamp, "metrics": metrics}, indent=2), encoding="utf-8")
    for name, value, unit, note in lines + [error_line]:
        print(f"{name:48s} {value:16.6g} {unit:6s} {note}")
    print("provenance " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def self_test() -> int:
    """Run every workload once at tiny sizes, traced and untraced, and prove
    that a corrupted output drives error_rate to 1."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    def child(workload, *extra):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
             "--seconds", "0", "--size", "tiny", *extra],
            capture_output=True, text=True, timeout=170)
        sys.stdout.write(done.stdout)
        if "self times miss" in done.stderr:
            problems.append(f"{workload} {extra}: layer self times do not add up to cli.main.s")
        if done.returncode != 0:
            problems.append(f"{workload} {extra}: exit {done.returncode}: {done.stderr[-800:]}")
            return None
        return json.loads(done.stdout.splitlines()[-1])

    for workload in WORKLOADS:
        for trace, listed in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            print(f"== self-test {workload} --trace {trace}")
            result = child(workload, "--trace", trace)
            if result is None:
                continue
            if not (result["correct"] and result["failed"] == 0):
                problems.append(f"{workload} --trace {trace}: clean run failed its checks")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in listed}
            if got != want:
                problems.append(f"{workload} --trace {trace}: metrics {sorted(set(got) ^ set(want))} "
                                f"differ from BENCHMARK.json")
        print(f"== self-test {workload} --trace 0 --corrupt")
        result = child(workload, "--trace", "0", "--corrupt")
        if result is not None and result["failed"] != result["attempted"]:
            problems.append(f"{workload}: corrupted output not caught "
                            f"({result['failed']} of {result['attempted']} failed)")
    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process, so each reports its own
    set-up time and peak RSS."""
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size],
            timeout=180)
        status = status or done.returncode
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="input size; tiny is the self-test size")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--corrupt", action="store_true",
                    help="perturb each output before its check (self-test only)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args)
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())

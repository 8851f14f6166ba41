"""Command-line front end.

Every subcommand is a pure function of its input files, flags and seed:
re-running a command reproduces its output byte for byte. JSON is the
canonical interchange format between subcommands; CSV output is for plotting.
All outputs embed the tool version and the fully resolved configuration.
Timing diagnostics go to stderr so they never perturb the output bytes.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric degeneracy.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from collections import Counter
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .core import (
    DataFormatError,
    DegenerateInputError,
    GaussianSummary,
    MetricKind,
    PairTable,
    PredictorVector,
    ScaleSpec,
)
from . import analysis, approx, ingest, mc

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DEGENERATE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for data errors
    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration of one CLI run, echoed into every output."""

    command: str
    options: dict

    def header(self) -> dict:
        return {
            "tool": {"name": "magicbarrier", "version": __version__},
            "command": self.command,
            "config": self.options,
        }


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _emit_json(doc: dict, out: str | None) -> None:
    _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", out)


def _emit_rows(cfg: RunConfig, row_type, rows: Sequence, fmt: str, out: str | None) -> None:
    """Dataclass rows as JSON ``rows``, or as CSV with one column per field."""
    if fmt == "json":
        doc = cfg.header()
        doc["rows"] = [asdict(r) for r in rows]
        _emit_json(doc, out)
        return
    buf = io.StringIO()
    buf.write(f"# tool=magicbarrier version={__version__}\n")
    buf.write(f"# command={cfg.command}\n")
    for key in sorted(cfg.options):
        buf.write(f"# {key}={cfg.options[key]}\n")
    buf.write(",".join(f.name for f in fields(row_type)) + "\n")
    for row in rows:
        values = astuple(row)
        buf.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in values))
        buf.write("\n")
    _write(buf.getvalue(), out)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc


def _load_json(path: str) -> dict:
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: expected a JSON object at the top level")
    return doc


def _load_pairs(path: str) -> tuple[ScaleSpec | None, PairTable]:
    doc = _load_json(path)
    if "pairs" not in doc:
        raise DataFormatError(f"{path}: missing 'pairs' key")
    scale = None
    if doc.get("scale") is not None:
        s = doc["scale"]
        try:
            scale = ScaleSpec(s["min_category"], s["max_category"], s["num_trials"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}: malformed scale: {exc}") from exc
    try:
        entries = doc["pairs"]
        keys = [(str(p["user"]), str(p["item"])) for p in entries]
        means = [float(p["mean"]) for p in entries]
        variances = [float(p["variance"]) for p in entries]
        return scale, PairTable(keys, means, variances)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed pair entry: {exc}") from exc


def _load_usable_pairs(path: str) -> tuple[ScaleSpec | None, PairTable]:
    """The pairs of ``path`` with nonvanishing variance; refuses when none has."""
    scale, pairs = _load_pairs(path)
    usable = ingest.filter_nonvanishing(pairs)
    if not len(usable):
        raise DegenerateInputError("no pairs with nonvanishing variance")
    return scale, usable


def _load_summary(
    path: str,
) -> tuple[GaussianSummary, analysis.DiscreteDensity | None]:
    """Load a Gaussian summary; also return its histogram when present."""
    doc = _load_json(path)
    try:
        summary = GaussianSummary(float(doc["mean"]), float(doc["variance"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: expected mean/variance: {exc}") from exc
    hist = doc.get("histogram")
    if hist is None:
        return summary, None
    try:
        edges, heights = hist["edges"], hist["heights"]
        return summary, analysis.DiscreteDensity.from_histogram(edges, heights)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed histogram: {exc}") from exc


def _load_predictors(path: str) -> dict[tuple[str, str], float]:
    reader = csv.reader(io.StringIO(_read_text(path)))
    try:
        return _predictor_table(reader, path)
    except csv.Error as exc:
        raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from None


def _predictor_table(reader, path: str) -> dict[tuple[str, str], float]:
    header = tuple(h.strip().lstrip("\ufeff").lower() for h in next(reader, []))
    if header != ("user", "item", "prediction"):
        raise DataFormatError(f"{path}: line 1: expected header 'user,item,prediction'")
    table: dict[tuple[str, str], float] = {}
    for row in reader:
        i = reader.line_num
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        parts = [f.strip() for f in row]
        if len(parts) != 3:
            raise DataFormatError(f"{path}: line {i}: expected 3 fields")
        try:
            value = float(parts[2])
        except ValueError:
            raise DataFormatError(
                f"{path}: line {i}: prediction must be a number"
            ) from None
        key = (parts[0], parts[1])
        if key in table:
            raise DataFormatError(f"{path}: line {i}: duplicate pair {key}")
        table[key] = value
    return table


def _predictors_for(
    pairs: PairTable, table: dict[tuple[str, str], float], path: str
) -> PredictorVector:
    try:
        values = [table[key] for key in pairs.keys]
    except KeyError as exc:
        raise DataFormatError(
            f"{path}: missing prediction for pair {exc.args[0]}"
        ) from None
    return PredictorVector(keys=pairs.keys, values=values)


def _parse_grid(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise _UsageError(f"{flag}: expected comma-separated numbers, got {text!r}")
    if not values:
        raise _UsageError(f"{flag}: empty grid")
    return values


def _scale_from_args(args) -> ScaleSpec:
    try:
        return ScaleSpec(args.scale_min, args.scale_max, args.trials)
    except ValueError as exc:
        raise _UsageError(str(exc))


def _add_scale_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale-min", type=int, default=1, help="lowest rating category")
    p.add_argument("--scale-max", type=int, default=5, help="highest rating category")
    p.add_argument(
        "--trials", type=int, default=5, help="re-rating trials per user-item pair"
    )


def _add_mc_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau", type=int, default=100_000, help="Monte-Carlo trials")
    p.add_argument("--seed", type=int, default=0, help="master seed in [0, 2**64)")
    p.add_argument(
        "--workers", type=int, default=1, help="worker threads (capped at the usable CPUs)"
    )


def _mc_config_from_args(args, bins: int | None = None) -> mc.MCConfig:
    if args.workers < 1:
        raise _UsageError(f"--workers must be >= 1, got {args.workers}")
    try:
        return mc.MCConfig(trials=args.tau, bins=bins, master_seed=args.seed)
    except ValueError as exc:
        raise _UsageError(str(exc))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ingest(args) -> int:
    scale = _scale_from_args(args)
    tensor = ingest.parse_tensor(_read_text(args.tensor), scale)
    cfg = RunConfig(
        "ingest",
        {
            "input": args.tensor,
            "scale_min": scale.min_category,
            "scale_max": scale.max_category,
            "trials": scale.num_trials,
            "alpha": args.alpha,
        },
    )
    if len(tensor):
        pairs = ingest.fit_pair_gaussians(tensor)
    else:
        print("warning: empty tensor, nothing to fit", file=sys.stderr)
        pairs = PairTable((), (), ())
    nonvanishing = ingest.filter_nonvanishing(pairs)
    fractions = ingest.nonzero_variance_fraction_by_item(pairs)

    rate = None
    if len(nonvanishing):
        rate = ingest.fit_exponential(nonvanishing.variances).rate
    elif len(pairs):
        print(
            "warning: all slices constant, exponential fit unavailable",
            file=sys.stderr,
        )

    means = pairs.means.tolist()
    variances = pairs.variances.tolist()
    tested = 0
    rejected = 0
    # a slice with nonzero variance has at least two ratings
    for sample, mean, variance in zip(tensor.pair_slices(), means, variances):
        if variance > 0.0:
            result = ingest.ks_normality_test(
                sample, mean, np.sqrt(variance), alpha=args.alpha
            )
            tested += 1
            rejected += int(result.rejected)

    doc = cfg.header()
    doc.update(
        {
            "scale": asdict(scale),
            "pairs": [
                {"user": user, "item": item, "mean": mean, "variance": variance}
                for (user, item), mean, variance in zip(pairs.keys, means, variances)
            ],
            "summary": {
                "pair_count": len(pairs),
                "nonvanishing_count": len(nonvanishing),
                "per_item_nonzero_fraction": fractions,
                "exponential_rate": rate,
                "ks": {"alpha": args.alpha, "tested": tested, "rejected": rejected},
            },
        }
    )
    _emit_json(doc, args.out)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    _, usable = _load_usable_pairs(args.pairs)
    if len(usable) < approx.SMALL_N_WARNING_THRESHOLD:
        print(
            f"warning: only {len(usable)} pairs; the Gaussian shape assumption "
            f"for the metric weakens below {approx.SMALL_N_WARNING_THRESHOLD}",
            file=sys.stderr,
        )
    metric = MetricKind(args.metric)
    start = time.perf_counter()
    if metric is MetricKind.RMSE:
        summary = approx.magic_barrier_rmse(usable.variances)
    else:
        summary = approx.mae_summary_from_offsets(usable.variances)
    elapsed = time.perf_counter() - start
    print(f"closed-form step: {elapsed * 1e3:.3f} ms", file=sys.stderr)

    cfg = RunConfig(
        "estimate",
        {"pairs": args.pairs, "metric": metric.value, "nonvanishing_count": len(usable)},
    )
    doc = cfg.header()
    doc.update(summary.to_json_dict())
    _emit_json(doc, args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    mc_cfg = _mc_config_from_args(args, args.bins)
    scale, usable = _load_usable_pairs(args.pairs)
    metric = MetricKind(args.metric)
    if args.predictors is None:
        predictors = mc.optimal_predictors(usable, metric)
        predictor_source = "optimal"
    else:
        predictors = _predictors_for(usable, _load_predictors(args.predictors), args.predictors)
        predictor_source = args.predictors

    clip_bounds = None
    if args.clip:
        if scale is None:
            raise DataFormatError(
                f"{args.pairs}: --clip needs the rating scale, but the pairs "
                f"file carries none"
            )
        clip_bounds = (float(scale.min_category), float(scale.max_category))

    sample = mc.simulate_metric(
        usable, predictors, metric, mc_cfg, workers=args.workers,
        clip_bounds=clip_bounds,
    )
    cfg = RunConfig(
        "simulate",
        {
            "pairs": args.pairs,
            "predictors": predictor_source,
            "metric": metric.value,
            "tau": mc_cfg.trials,
            "bins": mc_cfg.resolved_bins,
            "master_seed": mc_cfg.master_seed,
            "clip": bool(args.clip),
            "nonvanishing_count": len(usable),
        },
    )
    values_path = None
    if args.values_out is not None:
        sample.values.astype("<f8").tofile(args.values_out)
        values_path = args.values_out
    doc = cfg.header()
    doc.update(sample.to_json_dict(values_path=values_path))
    _emit_json(doc, args.out)
    return EXIT_OK


def _cmd_compare(args) -> int:
    barrier, barrier_hist = _load_summary(args.barrier)
    rmse, rmse_hist = _load_summary(args.rmse)
    probability = analysis.interference_probability(barrier, rmse)
    decision = analysis.improvement_criterion(barrier, rmse)

    jsd_value = jsd_note = None
    if barrier_hist is not None and rmse_hist is not None:
        if np.array_equal(barrier_hist.edges, rmse_hist.edges):
            jsd_value = analysis.jsd(barrier_hist, rmse_hist)
        else:
            jsd_note = "histogram edges differ; divergence not computed"
    elif barrier_hist is not None or rmse_hist is not None:
        sampled, gaussian = (
            (barrier_hist, rmse) if barrier_hist is not None else (rmse_hist, barrier)
        )
        gaussian_masses = analysis.DiscreteDensity.from_gaussian(gaussian, sampled.edges)
        jsd_value = analysis.jsd(sampled, gaussian_masses)

    cfg = RunConfig("compare", {"barrier": args.barrier, "rmse": args.rmse})
    doc = cfg.header()
    doc.update(
        {
            "barrier": barrier.to_json_dict(),
            "rmse": rmse.to_json_dict(),
            "interference_probability": probability,
            "verdict": "differentiated analysis needed"
            if decision.differentiated_analysis_needed
            else "improvable",
        }
    )
    doc.update(decision.to_json_dict())
    doc["jsd"] = jsd_value
    if jsd_note:
        doc["jsd_note"] = jsd_note
    _emit_json(doc, args.out)
    return EXIT_OK


def _cmd_sensitivity(args) -> int:
    scale = _scale_from_args(args)
    grid = _parse_grid(args.grid, "--grid")
    axis = "pair_count" if args.axis == "n" else "variance"
    try:
        rows = analysis.sensitivity_sweep(axis, grid, args.fixed, scale)
    except ValueError as exc:
        raise _UsageError(str(exc))
    cfg = RunConfig(
        "sensitivity",
        {
            "axis": args.axis,
            "grid": args.grid,
            "fixed": args.fixed,
            "scale_min": scale.min_category,
            "scale_max": scale.max_category,
            "trials": scale.num_trials,
        },
    )
    _emit_rows(cfg, analysis.SweepRow, rows, args.format, args.out)
    return EXIT_OK


def _cmd_rankcurves(args) -> int:
    if (args.variances is None) == (args.pairs is None):
        raise _UsageError("provide exactly one of --variances or --pairs")
    if args.variances is not None:
        base = ingest.parse_variances(_read_text(args.variances))
        source = args.variances
    else:
        _, pairs = _load_pairs(args.pairs)
        base = ingest.filter_nonvanishing(pairs).variances
        source = args.pairs
    if base.size == 0:
        raise DegenerateInputError("no positive variances available")
    try:
        sweep = analysis.NoiseSweepConfig(
            relative_differences=tuple(_parse_grid(args.deltas, "--deltas")),
            offsets=tuple(_parse_grid(args.offsets, "--offsets")),
            base_variances=tuple(base.tolist()),
            noise_scale=args.noise_scale,
        )
    except ValueError as exc:
        raise _UsageError(str(exc))
    points = analysis.ranking_error_curves(sweep)
    cfg = RunConfig(
        "rankcurves",
        {
            "variances": source,
            "deltas": args.deltas,
            "offsets": args.offsets,
            "noise_scale": args.noise_scale,
            "pair_count": int(base.size),
        },
    )
    _emit_rows(cfg, analysis.RankCurvePoint, points, args.format, args.out)
    return EXIT_OK


def _cmd_rank(args) -> int:
    labels = [Path(p).stem for p in args.predictors]
    clash = next((s for s, n in Counter(labels).items() if n > 1), None)
    if clash is not None:
        raise _UsageError(
            f"--predictors: several files share the label {clash!r}; "
            f"orderings are keyed by file stem, so stems must be unique"
        )
    mc_cfg = _mc_config_from_args(args)
    _, usable = _load_usable_pairs(args.pairs)
    metric = MetricKind(args.metric)
    systems = [
        _predictors_for(usable, _load_predictors(path), path)
        for path in args.predictors
    ]
    ranking = analysis.rank_distribution(
        systems, usable, metric, mc_cfg, workers=args.workers
    )
    cfg = RunConfig(
        "rank",
        {
            "pairs": args.pairs,
            "systems": list(args.predictors),
            "metric": metric.value,
            "tau": mc_cfg.trials,
            "master_seed": mc_cfg.master_seed,
        },
    )
    doc = cfg.header()
    doc["orderings"] = {
        ">".join(labels[i] for i in ordering): probability
        for ordering, probability in sorted(
            ranking.items(), key=lambda kv: (-kv[1], kv[0])
        )
    }
    _emit_json(doc, args.out)
    return EXIT_OK


def _cmd_transfer(args) -> int:
    if args.count < 1:
        raise _UsageError(f"--count must be >= 1, got {args.count}")
    if not 0 <= args.seed < 2**64:
        raise _UsageError(f"--seed must be in [0, 2**64), got {args.seed}")
    fit = ingest.ExponentialFit(rate=args.rate, sample_size=0)
    bounds = None
    if args.bounds is not None:
        values = _parse_grid(args.bounds, "--bounds")
        if len(values) != 2:
            raise _UsageError("--bounds: expected low,high")
        bounds = (values[0], values[1])
    variances = ingest.sample_variances(fit, args.count, bounds=bounds, seed=args.seed)

    start = time.perf_counter()
    barrier = approx.magic_barrier_rmse(variances)
    elapsed = time.perf_counter() - start
    print(f"closed-form step: {elapsed * 1e3:.3f} ms", file=sys.stderr)

    # the simplified criterion assumes comparable spreads, i.e. the competitor
    # is compared at the barrier's own variance
    competitor = GaussianSummary(args.competitor_mean, barrier.variance)
    decision = analysis.improvement_criterion(barrier, competitor)

    cfg = RunConfig(
        "transfer",
        {
            "rate": args.rate,
            "count": args.count,
            "bounds": args.bounds,
            "seed": args.seed,
            "competitor_mean": args.competitor_mean,
        },
    )
    doc = cfg.header()
    doc.update(
        {
            "barrier": barrier.to_json_dict(),
            "sampled_variance_mean": float(np.mean(variances)),
            "analytic_variance_mean": 1.0 / args.rate,
            "analytic_barrier_mean": float(np.sqrt(1.0 / args.rate)),
            "competitor_mean": args.competitor_mean,
            "verdict": "differentiated analysis needed"
            if decision.differentiated_analysis_needed
            else "improvable",
        }
    )
    doc.update(decision.to_json_dict())
    _emit_json(doc, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="magicbarrier",
        description=(
            "Metric distributions for recommender evaluation under uncertain "
            "user ratings."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="fit per-pair Gaussians from a tensor CSV")
    p.add_argument("tensor", help="tensor CSV (header user,item,trial,rating)")
    _add_scale_flags(p)
    p.add_argument("--alpha", type=float, default=0.05, help="KS significance level")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("estimate", help="closed-form barrier distribution")
    p.add_argument("pairs", help="pairs JSON from ingest")
    p.add_argument("--metric", choices=["rmse", "mae"], default="rmse")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", help="Monte-Carlo metric distribution")
    p.add_argument("pairs", help="pairs JSON from ingest")
    p.add_argument(
        "--predictors",
        default=None,
        help="predictions CSV (user,item,prediction); omit for the optimal system",
    )
    p.add_argument("--metric", choices=["rmse", "mae"], default="rmse")
    _add_mc_flags(p)
    p.add_argument("--bins", type=int, default=None, help="histogram bins")
    p.add_argument(
        "--clip",
        action="store_true",
        help="clip rating draws to the scale (sensitivity studies only)",
    )
    p.add_argument("--values-out", default=None, help="raw float64 dump of all trials")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="interference and improvement verdict")
    p.add_argument("barrier", help="barrier JSON (estimate or simulate output)")
    p.add_argument("rmse", help="system metric JSON (estimate or simulate output)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sensitivity", help="barrier moments over a parameter grid")
    p.add_argument("--axis", choices=["n", "variance"], required=True)
    p.add_argument("--grid", required=True, help="comma-separated axis values")
    p.add_argument(
        "--fixed",
        type=float,
        required=True,
        help="the non-axis quantity (variance for --axis n, pair count otherwise)",
    )
    _add_scale_flags(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("rankcurves", help="point-paradigm ranking error curves")
    p.add_argument("--variances", default=None, help="variance file (header: variance)")
    p.add_argument("--pairs", default=None, help="pairs JSON from ingest")
    p.add_argument("--deltas", required=True, help="relative differences, comma-separated")
    p.add_argument("--offsets", required=True, help="offset grid, comma-separated")
    p.add_argument("--noise-scale", type=float, default=1.0)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_rankcurves)

    p = sub.add_parser("rank", help="ranking distribution of several systems")
    p.add_argument("pairs", help="pairs JSON from ingest")
    p.add_argument(
        "--predictors", nargs="+", required=True, help="one predictions CSV per system"
    )
    p.add_argument("--metric", choices=["rmse", "mae"], default="rmse")
    _add_mc_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser(
        "transfer", help="barrier transfer onto a record without re-rating data"
    )
    p.add_argument("--rate", type=float, default=2.11, help="exponential rate of variances")
    p.add_argument("--count", type=int, default=2_800_000, help="ratings in the target record")
    p.add_argument("--bounds", default=None, help="optional truncation low,high")
    p.add_argument("--seed", type=int, default=0, help="seed in [0, 2**64)")
    p.add_argument(
        "--competitor-mean",
        type=float,
        default=0.8567,
        help="observed metric score to compare the transferred barrier against",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_transfer)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DegenerateInputError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    raise SystemExit(main())

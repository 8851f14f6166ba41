"""Command-line front end.

Every subcommand is a pure function of its input files, flags and seed:
re-running a command reproduces its output byte for byte. JSON is the
canonical interchange format between subcommands; CSV output is for plotting.
Each subcommand returns its resolved configuration and its result; one
writer adds the tool version, the command and that configuration as a header
and writes the document to ``--out`` or stdout. Warnings go to stderr so they
never perturb the output bytes.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric degeneracy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from dataclasses import asdict, astuple, fields
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
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


def _emit(args, config: dict, body: dict) -> None:
    """Write one result under the tool/command/config header to ``--out`` or
    stdout: as JSON, or with ``--format csv`` its dataclass ``rows`` as CSV
    with one column per field."""
    if getattr(args, "format", "json") == "csv":
        rows = body["rows"]
        lines = [f"# tool=magicbarrier version={__version__}", f"# command={args.command}"]
        lines += [f"# {key}={config[key]}" for key in sorted(config)]
        lines.append(",".join(f.name for f in fields(rows[0])))
        lines += [
            ",".join(repr(v) if isinstance(v, float) else str(v) for v in astuple(row))
            for row in rows
        ]
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "tool": {"name": "magicbarrier", "version": __version__},
            "command": args.command,
            "config": config,
            **body,
        }
        # the bytes of json.dumps(doc, indent=2, sort_keys=True), written one
        # top-level value at a time
        text = "{\n" + ",\n".join(
            f"  {encode_basestring_ascii(key)}: {_json_value(doc[key])}" for key in sorted(doc)
        ) + "\n}\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_file(args.out, lambda path: Path(path).write_text(text, encoding="utf-8"))


def _json_value(value) -> str:
    """``value`` as json.dumps(indent=2, sort_keys=True) renders it one level
    deep; rows that are dataclasses become objects, and a :class:`PairTable`
    is the list of its ``user``, ``item``, ``mean`` and ``variance`` rows."""
    if isinstance(value, PairTable):
        text = _columns_json({
            "user": list(map(itemgetter(0), value.keys)),
            "item": list(map(itemgetter(1), value.keys)),
            "mean": value.means.tolist(),
            "variance": value.variances.tolist(),
        })
        if text is not None:
            return text
    return json.dumps(value, indent=2, sort_keys=True, default=asdict).replace("\n", "\n  ")


def _columns_json(columns: dict[str, list]) -> str | None:
    """The rows whose fields are ``columns`` (name to equal-length column),
    rendered one level deep as json.dumps(indent=2, sort_keys=True) renders
    the list of row objects, one column at a time; None unless every column
    is all str or all finite float."""
    # a row is each field's separator and value; the first separator also
    # closes the previous row, which the first row has not
    close = "\n    },\n"
    pieces = []
    for i, name in enumerate(sorted(columns)):
        column = columns[name]
        kinds = set(map(type, column))
        if kinds <= {str}:
            values = map(encode_basestring_ascii, column)
        elif kinds == {float} and all(map(math.isfinite, column)):
            values = _float_reprs(column)
        else:
            return None
        opening = ",\n" if i else close + "    {\n"
        pieces += [repeat(f"{opening}      {encode_basestring_ascii(name)}: "), values]
    rows = "".join(chain.from_iterable(zip(*pieces)))
    return "[\n" + rows[len(close):] + "\n    }\n  ]" if rows else "[]"


def _float_reprs(column: list[float]) -> list[str]:
    """``repr`` of each float of ``column``, computed once per distinct bit
    pattern: the fits of a few integer ratings take few distinct values."""
    bits, index = np.unique(np.array(column).view(np.int64), return_inverse=True)
    reprs = list(map(float.__repr__, bits.view(np.float64).tolist()))
    return list(map(reprs.__getitem__, index.tolist()))


def _warn(message: str) -> None:
    """Report a condition that does not stop the command, on stderr."""
    print(f"warning: {message}", file=sys.stderr)


def _check_output_dirs(args) -> None:
    """Refuse an output path that is a directory or whose directory does not
    exist, before any work."""
    for path in (args.out, getattr(args, "values_out", None)):
        if path is None:
            continue
        if Path(path).is_dir():
            raise DataFormatError(f"cannot write {path}: it is a directory")
        if not Path(path).parent.is_dir():
            raise DataFormatError(
                f"cannot write {path}: {Path(path).parent} is not a directory"
            )


def _write_file(path: str, write) -> None:
    """``write(path)``, with an OSError as a data error naming ``path``."""
    try:
        write(path)
    except OSError as exc:
        raise DataFormatError(f"cannot write {path}: {exc}") from exc


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


def _load_predictors(path: str, pairs: PairTable) -> PredictorVector:
    """The predictions CSV at ``path``, one value per pair of ``pairs``."""
    text = _read_text(path)
    try:
        return ingest.parse_predictions(text, pairs)
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


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


def _seed_from_args(args) -> int:
    if not 0 <= args.seed < 2**64:
        raise _UsageError(f"--seed must be in [0, 2**64), got {args.seed}")
    return args.seed


def _mc_config_from_args(args, bins: int | None = None) -> mc.MCConfig:
    if args.workers < 1:
        raise _UsageError(f"--workers must be >= 1, got {args.workers}")
    seed = _seed_from_args(args)
    try:
        return mc.MCConfig(trials=args.tau, bins=bins, master_seed=seed)
    except ValueError as exc:
        raise _UsageError(str(exc))


# ---------------------------------------------------------------------------
# subcommands: each returns its resolved configuration and its result body


def _cmd_ingest(args) -> tuple[dict, dict]:
    scale = _scale_from_args(args)
    if not 0.0 < args.alpha < 1.0:
        raise _UsageError(f"--alpha must be in (0, 1), got {args.alpha}")
    tensor = ingest.parse_tensor(_read_text(args.tensor), scale)
    if len(tensor):
        pairs = ingest.fit_pair_gaussians(tensor)
    else:
        _warn("empty tensor, nothing to fit")
        pairs = PairTable((), (), ())
    nonvanishing = ingest.filter_nonvanishing(pairs)
    fractions = ingest.nonzero_variance_fraction_by_item(pairs)

    rate = None
    if len(nonvanishing):
        rate = ingest.fit_exponential(nonvanishing.variances)
    elif len(pairs):
        _warn("all slices constant, exponential fit unavailable")
    tested, rejected = ingest.ks_test_slices(tensor, pairs, alpha=args.alpha)

    config = {
        "input": args.tensor,
        "scale_min": scale.min_category,
        "scale_max": scale.max_category,
        "trials": scale.num_trials,
        "alpha": args.alpha,
    }
    return config, {
        "scale": asdict(scale),
        "pairs": pairs,
        "summary": {
            "pair_count": len(pairs),
            "nonvanishing_count": len(nonvanishing),
            "per_item_nonzero_fraction": fractions,
            "exponential_rate": rate,
            "ks": {"alpha": args.alpha, "tested": tested, "rejected": rejected},
        },
    }


def _cmd_estimate(args) -> tuple[dict, dict]:
    _, usable = _load_usable_pairs(args.pairs)
    if len(usable) < approx.SMALL_N_WARNING_THRESHOLD:
        _warn(
            f"only {len(usable)} pairs; the Gaussian shape assumption "
            f"for the metric weakens below {approx.SMALL_N_WARNING_THRESHOLD}"
        )
    metric = MetricKind(args.metric)
    if metric is MetricKind.RMSE:
        summary = approx.magic_barrier_rmse(usable.variances)
    else:
        summary = approx.mae_summary_from_offsets(usable.variances)
    config = {"pairs": args.pairs, "metric": metric.value, "nonvanishing_count": len(usable)}
    return config, summary.to_json_dict()


def _cmd_simulate(args) -> tuple[dict, dict]:
    mc_cfg = _mc_config_from_args(args, args.bins)
    scale, usable = _load_usable_pairs(args.pairs)
    metric = MetricKind(args.metric)
    if args.predictors is None:
        predictors = mc.optimal_predictors(usable, metric)
        predictor_source = "optimal"
    else:
        predictors = _load_predictors(args.predictors, usable)
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
    if args.values_out is not None:
        _write_file(args.values_out, sample.values.astype("<f8").tofile)
    config = {
        "pairs": args.pairs,
        "predictors": predictor_source,
        "metric": metric.value,
        "tau": mc_cfg.trials,
        "bins": mc_cfg.resolved_bins,
        "master_seed": mc_cfg.master_seed,
        "clip": bool(args.clip),
        "nonvanishing_count": len(usable),
    }
    return config, sample.to_json_dict(values_path=args.values_out)


def _verdict(decision: analysis.ImprovementDecision) -> dict:
    return {
        "verdict": "differentiated analysis needed"
        if decision.differentiated_analysis_needed
        else "improvable",
        **decision.to_json_dict(),
    }


def _cmd_compare(args) -> tuple[dict, dict]:
    barrier, barrier_hist = _load_summary(args.barrier)
    rmse, rmse_hist = _load_summary(args.rmse)
    body = {
        "barrier": barrier.to_json_dict(),
        "rmse": rmse.to_json_dict(),
        "interference_probability": analysis.interference_probability(barrier, rmse),
        **_verdict(analysis.improvement_criterion(barrier, rmse)),
        "jsd": None,
    }
    if barrier_hist is not None and rmse_hist is not None:
        if np.array_equal(barrier_hist.edges, rmse_hist.edges):
            body["jsd"] = analysis.jsd(barrier_hist, rmse_hist)
        else:
            body["jsd_note"] = "histogram edges differ; divergence not computed"
    elif barrier_hist is not None or rmse_hist is not None:
        sampled, gaussian = (
            (barrier_hist, rmse) if barrier_hist is not None else (rmse_hist, barrier)
        )
        gaussian_masses = analysis.DiscreteDensity.from_gaussian(gaussian, sampled.edges)
        body["jsd"] = analysis.jsd(sampled, gaussian_masses)
    return {"barrier": args.barrier, "rmse": args.rmse}, body


def _cmd_sensitivity(args) -> tuple[dict, dict]:
    scale = _scale_from_args(args)
    grid = _parse_grid(args.grid, "--grid")
    axis = "pair_count" if args.axis == "n" else "variance"
    try:
        rows = analysis.sensitivity_sweep(axis, grid, args.fixed, scale)
    except ValueError as exc:
        raise _UsageError(str(exc))
    config = {
        "axis": args.axis,
        "grid": args.grid,
        "fixed": args.fixed,
        "scale_min": scale.min_category,
        "scale_max": scale.max_category,
        "trials": scale.num_trials,
    }
    return config, {"rows": rows}


def _cmd_rankcurves(args) -> tuple[dict, dict]:
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
    deltas = _parse_grid(args.deltas, "--deltas")
    offsets = _parse_grid(args.offsets, "--offsets")
    try:
        rows = analysis.ranking_error_curves(base, deltas, offsets, args.noise_scale)
    except ValueError as exc:
        raise _UsageError(str(exc))
    config = {
        "variances": source,
        "deltas": args.deltas,
        "offsets": args.offsets,
        "noise_scale": args.noise_scale,
        "pair_count": int(base.size),
    }
    return config, {"rows": rows}


def _cmd_rank(args) -> tuple[dict, dict]:
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
    systems = [_load_predictors(path, usable) for path in args.predictors]
    ranking = analysis.rank_distribution(
        systems, usable, metric, mc_cfg, workers=args.workers
    )
    config = {
        "pairs": args.pairs,
        "systems": list(args.predictors),
        "metric": metric.value,
        "tau": mc_cfg.trials,
        "master_seed": mc_cfg.master_seed,
    }
    return config, {
        "orderings": {
            ">".join(labels[i] for i in ordering): probability
            for ordering, probability in sorted(
                ranking.items(), key=lambda kv: (-kv[1], kv[0])
            )
        }
    }


def _cmd_transfer(args) -> tuple[dict, dict]:
    if args.count < 1:
        raise _UsageError(f"--count must be >= 1, got {args.count}")
    bounds = None
    if args.bounds is not None:
        values = _parse_grid(args.bounds, "--bounds")
        if len(values) != 2:
            raise _UsageError("--bounds: expected low,high")
        bounds = (values[0], values[1])
    seed = _seed_from_args(args)
    try:
        # a tiny rate draws variances whose squares, or the draws themselves,
        # overflow float64
        with np.errstate(over="raise"):
            variances = ingest.sample_variances(
                args.rate, args.count, bounds=bounds, seed=seed
            )
            barrier = approx.magic_barrier_rmse(variances)
    except FloatingPointError:
        raise _UsageError(
            f"--rate {args.rate!r} is too small: the sampled variances overflow float64"
        ) from None
    except ValueError as exc:
        raise _UsageError(str(exc))
    analytic = ingest._truncated_mean(args.rate, bounds)
    # the simplified criterion assumes comparable spreads, i.e. the competitor
    # is compared at the barrier's own variance
    try:
        competitor = GaussianSummary(args.competitor_mean, barrier.variance)
    except ValueError as exc:
        raise _UsageError(f"--competitor-mean: {exc}")

    config = {
        "rate": args.rate,
        "count": args.count,
        "bounds": args.bounds,
        "seed": args.seed,
        "competitor_mean": args.competitor_mean,
    }
    return config, {
        "barrier": barrier.to_json_dict(),
        "sampled_variance_mean": float(np.mean(variances)),
        "analytic_variance_mean": analytic,
        "analytic_barrier_mean": math.sqrt(analytic),
        "competitor_mean": args.competitor_mean,
        **_verdict(analysis.improvement_criterion(barrier, competitor)),
    }


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

    # flags shared by several subcommands, declared once each
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output path (default stdout)")
    metric = argparse.ArgumentParser(add_help=False)
    metric.add_argument("--metric", choices=["rmse", "mae"], default="rmse")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["json", "csv"], default="json")
    scale = argparse.ArgumentParser(add_help=False)
    scale.add_argument("--scale-min", type=int, default=1, help="lowest rating category")
    scale.add_argument("--scale-max", type=int, default=5, help="highest rating category")
    scale.add_argument(
        "--trials", type=int, default=5, help="re-rating trials per user-item pair"
    )
    mc_flags = argparse.ArgumentParser(add_help=False)
    mc_flags.add_argument("--tau", type=int, default=100_000, help="Monte-Carlo trials")
    mc_flags.add_argument("--seed", type=int, default=0, help="master seed in [0, 2**64)")
    mc_flags.add_argument(
        "--workers", type=int, default=1, help="worker threads (capped at the usable CPUs)"
    )

    def command(name, func, help, *parents):
        p = sub.add_parser(name, help=help, parents=[*parents, out])
        p.set_defaults(func=func)
        return p

    p = command("ingest", _cmd_ingest, "fit per-pair Gaussians from a tensor CSV", scale)
    p.add_argument("tensor", help="tensor CSV (header user,item,trial,rating)")
    p.add_argument("--alpha", type=float, default=0.05, help="KS significance level")

    p = command("estimate", _cmd_estimate, "closed-form barrier distribution", metric)
    p.add_argument("pairs", help="pairs JSON from ingest")

    p = command(
        "simulate", _cmd_simulate, "Monte-Carlo metric distribution", metric, mc_flags
    )
    p.add_argument("pairs", help="pairs JSON from ingest")
    p.add_argument(
        "--predictors",
        default=None,
        help="predictions CSV (user,item,prediction); omit for the optimal system",
    )
    p.add_argument("--bins", type=int, default=None, help="histogram bins")
    p.add_argument(
        "--clip",
        action="store_true",
        help="clip rating draws to the scale (sensitivity studies only)",
    )
    p.add_argument("--values-out", default=None, help="raw float64 dump of all trials")

    p = command("compare", _cmd_compare, "interference and improvement verdict")
    p.add_argument("barrier", help="barrier JSON (estimate or simulate output)")
    p.add_argument("rmse", help="system metric JSON (estimate or simulate output)")

    p = command(
        "sensitivity", _cmd_sensitivity, "barrier moments over a parameter grid",
        scale, fmt,
    )
    p.add_argument("--axis", choices=["n", "variance"], required=True)
    p.add_argument("--grid", required=True, help="comma-separated axis values")
    p.add_argument(
        "--fixed",
        type=float,
        required=True,
        help="the non-axis quantity (variance for --axis n, pair count otherwise)",
    )

    p = command(
        "rankcurves", _cmd_rankcurves, "point-paradigm ranking error curves", fmt
    )
    p.add_argument("--variances", default=None, help="variance file (header: variance)")
    p.add_argument("--pairs", default=None, help="pairs JSON from ingest")
    p.add_argument("--deltas", required=True, help="relative differences, comma-separated")
    p.add_argument("--offsets", required=True, help="offset grid, comma-separated")
    p.add_argument("--noise-scale", type=float, default=1.0)

    p = command(
        "rank", _cmd_rank, "ranking distribution of several systems", metric, mc_flags
    )
    p.add_argument("pairs", help="pairs JSON from ingest")
    p.add_argument(
        "--predictors", nargs="+", required=True, help="one predictions CSV per system"
    )

    p = command(
        "transfer", _cmd_transfer, "barrier transfer onto a record without re-rating data"
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

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_output_dirs(args)
        _emit(args, *args.func(args))
        return EXIT_OK
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

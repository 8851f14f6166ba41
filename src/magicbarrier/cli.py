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
import functools
import json
import math
import re
import sys
from collections import Counter
from dataclasses import asdict, astuple, fields
from itertools import repeat
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
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes only plain numbers as values, so "--fixed
        # -1e5" read as a flag; "-" and a digit or "." starts no flag of this tool
        self._negative_number_matcher = re.compile(r"^-[\d.]")

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
    deep; dataclasses become objects of their fields, and a :class:`PairTable`
    is the list of its ``item``, ``mean``, ``user`` and ``variance`` rows.
    NaN and the infinities are not JSON: they raise ValueError, before
    :func:`_emit` writes any byte."""
    if not isinstance(value, PairTable):
        return json.dumps(
            value, indent=2, sort_keys=True, default=asdict, allow_nan=False
        ).replace("\n", "\n  ")
    if not value.keys:
        return "[]"
    users = map(encode_basestring_ascii, map(itemgetter(0), value.keys))
    items = map(encode_basestring_ascii, map(itemgetter(1), value.keys))
    # a row is its four fields, each after its prefix; the braces join rows
    rows = zip(
        repeat('\n      "item": '), items,
        repeat(',\n      "mean": '), _float_reprs(value.means),
        repeat(',\n      "user": '), users,
        repeat(',\n      "variance": '), _float_reprs(value.variances),
    )
    return "[\n    {" + "\n    },\n    {".join(map("".join, rows)) + "\n    }\n  ]"


def _float_reprs(column: np.ndarray) -> list[str]:
    """``repr`` of each float of ``column``, computed once per distinct bit
    pattern: the fits of a few integer ratings take few distinct values."""
    bits, index = np.unique(column.view(np.int64), return_inverse=True)
    reprs = list(map(float.__repr__, bits.view(np.float64).tolist()))
    return list(map(reprs.__getitem__, index.tolist()))


def _warn(message: str) -> None:
    """Report a condition that does not stop the command, on stderr."""
    print(f"warning: {message}", file=sys.stderr)


def _check_output_dirs(args) -> None:
    """Refuse an output path that is a directory or whose directory does not
    exist, and a values dump that the JSON would overwrite, before any work."""
    values_out = getattr(args, "values_out", None)
    if None not in (args.out, values_out) and (
        Path(args.out).resolve() == Path(values_out).resolve()
    ):
        raise _UsageError(f"--out and --values-out name the same file: {values_out}")
    for path in (args.out, values_out):
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


# the Python types json.loads gives each JSON type a field may take; a bool
# is not an int here, as true is not a number in JSON
_JSON_TYPES = {"string": {str}, "number": {int, float}, "integer": {int}}


def _typed(path: str, field: str, column: list, kind: str) -> list:
    """``column`` if every value is a JSON ``kind``, checked as one set of
    the column's types, not value by value; a data error otherwise."""
    if not set(map(type, column)) <= _JSON_TYPES[kind]:
        bad = next(v for v in column if type(v) not in _JSON_TYPES[kind])
        raise DataFormatError(f"{path}: {field} must be a JSON {kind}, got {json.dumps(bad)}")
    return column


def _load_pairs(path: str) -> tuple[ScaleSpec | None, PairTable]:
    doc = _load_json(path)
    if "pairs" not in doc:
        raise DataFormatError(f"{path}: missing 'pairs' key")
    scale = None
    if doc.get("scale") is not None:
        s = doc["scale"]
        try:
            scale = ScaleSpec(*(
                _typed(path, f"scale {name}", [s[name]], "integer")[0]
                for name in ("min_category", "max_category", "num_trials")
            ))
            # as floats, as simulate --clip uses them
            bounds = float(scale.min_category), float(scale.max_category)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataFormatError(f"{path}: malformed scale: {exc}") from exc
    try:
        entries = doc["pairs"]
        users, items, means, variances = (
            _typed(path, f"pair {name}", [p[name] for p in entries], kind)
            for name, kind in (
                ("user", "string"), ("item", "string"), ("mean", "number"), ("variance", "number")
            )
        )
        keys = list(zip(users, items))
        pairs = PairTable(keys, means, variances)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"{path}: malformed pair entry: {exc}") from exc
    # simulate --clip moves a rating drawn about a mean off the scale onto the
    # scale, as far from the mean as the scale is, and squares that distance
    if scale is not None:
        outside = (pairs.means < bounds[0]) | (pairs.means > bounds[1])
        if outside.any():
            i = int(np.argmax(outside))
            raise DataFormatError(
                f"{path}: pair {pairs.keys[i]} has mean {pairs.means[i]:g}, outside its "
                f"scale [{scale.min_category}, {scale.max_category}]"
            )
    return scale, pairs


def _check_squared_variances(path: str, variances: np.ndarray, name) -> None:
    """Refuse ``variances`` when the sum of their squares, doubled in the RMSE
    closed form, is not finite, naming entry i, at which the sum overflows,
    as ``name(i)``."""
    with np.errstate(over="ignore"):
        overflow = ~np.isfinite(np.cumsum(2.0 * np.square(variances)))
    if overflow[-1]:
        i = int(np.argmax(overflow))
        raise DataFormatError(
            f"{path}: {name(i)} has so large a variance ({variances[i]:g}) that the sum "
            "of squared variances, doubled in the RMSE closed form, overflows float64"
        )


def _load_usable_pairs(path: str) -> tuple[ScaleSpec | None, PairTable]:
    """The pairs of ``path`` with nonvanishing variance; refuses when none
    has, and when the sum of their squared variances overflows."""
    scale, pairs = _load_pairs(path)
    usable = ingest.filter_nonvanishing(pairs)
    if not len(usable):
        raise DegenerateInputError("no pairs with nonvanishing variance")
    _check_squared_variances(path, usable.variances, lambda i: f"pair {usable.keys[i]}")
    return scale, usable


def _load_summary(
    path: str,
) -> tuple[GaussianSummary, analysis.DiscreteDensity | None]:
    """Load a Gaussian summary; also return its histogram when present."""
    doc = _load_json(path)
    try:
        summary = GaussianSummary(*(
            float(_typed(path, name, [doc[name]], "number")[0]) for name in ("mean", "variance")
        ))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"{path}: expected mean/variance: {exc}") from exc
    hist = doc.get("histogram")
    if hist is None:
        return summary, None
    try:
        edges = _typed(path, "histogram edges", hist["edges"], "number")
        heights = _typed(path, "histogram heights", hist["heights"], "number")
        return summary, analysis.DiscreteDensity.from_histogram(edges, heights)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"{path}: malformed histogram: {exc}") from exc


def _load_predictors(path: str, pairs: PairTable) -> PredictorVector:
    """The predictions CSV at ``path``, one value per pair of ``pairs``, which
    the Monte-Carlo kernels can score."""
    text = _read_text(path)
    try:
        predictors = ingest.parse_predictions(text, pairs)
        mc._offsets(pairs, [predictors])
    except (DataFormatError, ValueError) as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    return predictors


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


def _mc_config_from_args(args) -> mc.MCConfig:
    if args.workers < 1:
        raise _UsageError(f"--workers must be >= 1, got {args.workers}")
    seed = _seed_from_args(args)
    try:
        return mc.MCConfig(trials=args.tau, master_seed=seed)
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
        "scale": scale,
        "pairs": pairs,
        "summary": {
            "pair_count": len(pairs),
            "nonvanishing_count": len(nonvanishing),
            "per_item_nonzero_fraction": fractions,
            "exponential_rate": rate,
            "ks": {"alpha": args.alpha, "tested": tested, "rejected": rejected},
        },
    }


# below this many pairs the Gaussian shape assumption for the metric weakens
_SMALL_N_WARNING_THRESHOLD = 100


def _cmd_estimate(args) -> tuple[dict, dict]:
    _, usable = _load_usable_pairs(args.pairs)
    if len(usable) < _SMALL_N_WARNING_THRESHOLD:
        _warn(
            f"only {len(usable)} pairs; the Gaussian shape assumption "
            f"for the metric weakens below {_SMALL_N_WARNING_THRESHOLD}"
        )
    metric = MetricKind(args.metric)
    if metric is MetricKind.RMSE:
        summary = approx.magic_barrier_rmse(usable.variances)
    else:
        summary = approx.mae_summary_from_offsets(usable.variances)
    config = {"pairs": args.pairs, "metric": metric.value, "nonvanishing_count": len(usable)}
    return config, asdict(summary)


def _cmd_simulate(args) -> tuple[dict, dict]:
    mc_cfg = _mc_config_from_args(args)
    if args.bins is not None and args.bins < 2:
        raise _UsageError(f"--bins must be >= 2, got {args.bins}")
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
        clip_bounds=clip_bounds, bins=args.bins,
    )
    if args.values_out is not None:
        _write_file(args.values_out, sample.values.astype("<f8").tofile)
    config = {
        "pairs": args.pairs,
        "predictors": predictor_source,
        "metric": metric.value,
        "tau": mc_cfg.trials,
        "bins": sample.bin_heights.size,
        "master_seed": mc_cfg.master_seed,
        "clip": bool(args.clip),
        "nonvanishing_count": len(usable),
    }
    histogram = {"edges": sample.bin_edges.tolist(), "heights": sample.bin_heights.tolist()}
    body = {**asdict(sample.summary), "histogram": histogram}
    if args.values_out is not None:
        body["values_path"] = args.values_out
    return config, body


def _verdict(decision: analysis.ImprovementDecision) -> dict:
    return {
        "verdict": "differentiated analysis needed"
        if decision.differentiated_analysis_needed
        else "improvable",
        "differentiated_analysis_needed": decision.differentiated_analysis_needed,
        "margin": decision.margin,
        "simplified": {
            "gap": decision.simplified_gap,
            "threshold": decision.simplified_threshold,
            "needed": decision.simplified_needed,
        },
    }


def _cmd_compare(args) -> tuple[dict, dict]:
    barrier, barrier_hist = _load_summary(args.barrier)
    rmse, rmse_hist = _load_summary(args.rmse)
    decision = analysis.improvement_criterion(barrier, rmse)
    if not (math.isfinite(decision.margin) and math.isfinite(decision.simplified_gap)):
        raise DataFormatError(f"{args.barrier} and {args.rmse}: their means' gap overflows float64")
    body = {
        "barrier": barrier,
        "rmse": rmse,
        "interference_probability": analysis.interference_probability(barrier, rmse),
        **_verdict(decision),
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
        try:
            gaussian_masses = analysis.DiscreteDensity.from_gaussian(gaussian, sampled.edges)
        except ValueError:
            # the loader checked the edges, so the Gaussian's CDF is flat on them
            body["jsd_note"] = (
                "the Gaussian has no mass on the histogram's edges; divergence not computed"
            )
        else:
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
        source = args.variances
        base = ingest.parse_variances(_read_text(source))
        if base.size == 0:
            raise DegenerateInputError("no positive variances available")
        _check_squared_variances(source, base, lambda i: f"record {i + 1}")
    else:
        source = args.pairs
        base = _load_usable_pairs(source)[1].variances
    deltas = _parse_grid(args.deltas, "--deltas")
    offsets = _parse_grid(args.offsets, "--offsets")
    try:
        rows = analysis.ranking_error_curves(base, deltas, offsets, args.noise_scale)
    except OverflowError:
        raise _UsageError(
            "--deltas, --offsets and --noise-scale: the largest scaled offset, "
            "(offset + delta) * noise scale, squares past float64 in the RMSE closed form"
        ) from None
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
    joined = next((s for s in labels if ">" in s), None)
    if joined is not None:
        raise _UsageError(
            f"--predictors: the label {joined!r} contains '>', which joins the "
            f"labels of an ordering"
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
    # the writer sorts the keys, so the label order is the output order
    return config, {
        "orderings": {
            ">".join(labels[i] for i in ordering): probability
            for ordering, probability in ranking.items()
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
        # a tiny rate draws variances that overflow float64 (FloatingPointError),
        # or whose squares do (OverflowError from the closed form)
        with np.errstate(over="raise"):
            variances = ingest.sample_variances(
                args.rate, args.count, bounds=bounds, seed=seed
            )
        barrier = approx.magic_barrier_rmse(variances)
    except (FloatingPointError, OverflowError):
        # with a window, its upper end bounds the draws as much as the rate
        cause = f"--rate {args.rate!r} is too small"
        if bounds is not None:
            cause = f"--bounds {args.bounds} with --rate {args.rate!r}"
        raise _UsageError(f"{cause}: the sampled variances overflow float64") from None
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
        "barrier": barrier,
        "sampled_variance_mean": float(np.mean(variances)),
        "analytic_variance_mean": analytic,
        "analytic_barrier_mean": math.sqrt(analytic),
        "competitor_mean": args.competitor_mean,
        **_verdict(analysis.improvement_criterion(barrier, competitor)),
    }


# ---------------------------------------------------------------------------
# parser wiring


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    caller: each subcommand's ``func`` default looks its ``_cmd_*`` handler
    up in this module when it runs, not when the parser is built."""
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

    def command(name, help, *parents):
        p = sub.add_parser(name, help=help, parents=[*parents, out])
        p.set_defaults(func=lambda args: globals()[f"_cmd_{name}"](args))
        return p

    p = command("ingest", "fit per-pair Gaussians from a tensor CSV", scale)
    p.add_argument("tensor", help="tensor CSV (header user,item,trial,rating)")
    p.add_argument("--alpha", type=float, default=0.05, help="KS significance level")

    p = command("estimate", "closed-form barrier distribution", metric)
    p.add_argument("pairs", help="pairs JSON from ingest")

    p = command("simulate", "Monte-Carlo metric distribution", metric, mc_flags)
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

    p = command("compare", "interference and improvement verdict")
    p.add_argument("barrier", help="barrier JSON (estimate or simulate output)")
    p.add_argument("rmse", help="system metric JSON (estimate or simulate output)")

    p = command("sensitivity", "barrier moments over a parameter grid", scale, fmt)
    p.add_argument("--axis", choices=["n", "variance"], required=True)
    p.add_argument("--grid", required=True, help="comma-separated axis values")
    p.add_argument(
        "--fixed",
        type=float,
        required=True,
        help="the non-axis quantity (variance for --axis n, pair count otherwise)",
    )

    p = command("rankcurves", "point-paradigm ranking error curves", fmt)
    p.add_argument("--variances", default=None, help="variance file (header: variance)")
    p.add_argument("--pairs", default=None, help="pairs JSON from ingest")
    p.add_argument("--deltas", required=True, help="relative differences, comma-separated")
    p.add_argument("--offsets", required=True, help="offset grid, comma-separated")
    p.add_argument("--noise-scale", type=float, default=1.0)

    p = command("rank", "ranking distribution of several systems", metric, mc_flags)
    p.add_argument("pairs", help="pairs JSON from ingest")
    p.add_argument(
        "--predictors", nargs="+", required=True, help="one predictions CSV per system"
    )

    p = command("transfer", "barrier transfer onto a record without re-rating data")
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
    """Run one command line on the process's one parser (``build_parser``)
    and return its exit code."""
    try:
        args = build_parser().parse_args(argv)
        _check_output_dirs(args)
        _emit(args, *args.func(args))
        return EXIT_OK
    # a size flag past memory; numpy names the array, and no byte is written yet
    except (_UsageError, MemoryError) as exc:
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

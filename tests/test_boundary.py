"""The input-boundary contract of the CLI, over every subcommand.

For any well-formed input (files that parse as their format, flags of the
right type, values anywhere in float64) a command exits 0, 1, 2 or 3. Its
stderr holds only its own ``warning:``, ``usage error:``, ``data error:`` or
``degenerate input:`` lines: no traceback and no numpy warning. A failing
command writes nothing to stdout, and a succeeding one writes JSON without
``NaN`` or ``Infinity``, or CSV without ``nan`` or ``inf``.

A flag's value is given as ``--flag=value`` or as ``--flag value``, so that
negative values are tried in both forms.

Half of the examples are plain: values that pass the first checks, so that
the code behind them runs. The other half are wild: each value is plain or
drawn from anywhere in its type.
"""

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from magicbarrier.cli import main

# examples per subcommand; the module adds about 4 s to the suite
EXAMPLES = 50

PREFIXES = ("warning: ", "usage error: ", "data error: ", "degenerate input: ")

# float64 anywhere: subnormals, signed zeros and the extremes
ANY_FLOAT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-320, 1e154, 1e300, 1.7976931348623157e308,
                     -1e154, -1e300, -1.7976931348623157e308]),
)
ANY_NONNEGATIVE = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False),
    st.sampled_from([0.0, 5e-324, 1e-320, 1e154, 1e300, 1.7976931348623157e308]),
)
SMALL_INTS = st.integers(min_value=-2, max_value=8)
IDS = st.sampled_from(["u0", "u1", "u2"])
ITEMS = st.sampled_from(["i0", "i1"])


def _not_json(name):
    raise AssertionError(f"{name} in the JSON output")


def check_run(argv, files):
    """Run ``main(argv)`` in a new directory holding ``files`` (name to
    text), every warning an error, and check the contract."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, text in files.items():
            Path(name).write_text(text, encoding="utf-8")
        with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("error")
            code = main(argv)
    assert code in (0, 1, 2, 3)
    for line in err.getvalue().splitlines():
        assert line.startswith(PREFIXES), err.getvalue()
    text = out.getvalue()
    if code != 0:
        assert text == ""
    elif "--format=csv" in argv:
        assert not re.search(r"\b(nan|inf)\b", text), text
    else:
        json.loads(text, parse_constant=_not_json)


class Draw:
    """Draws the values of one example, plain or wild."""

    def __init__(self, data):
        self.data = data
        self.wild = data.draw(st.booleans(), label="wild")

    def either(self, plain, wild):
        """``plain``; in a wild example, ``plain`` or ``wild``."""
        return st.one_of(plain, wild) if self.wild else plain

    def __call__(self, plain, wild=None):
        return self.data.draw(plain if wild is None else self.either(plain, wild))

    def flag(self, name, value):
        """``name=value``, or ``name value``: in the space form, a value that
        starts with "-" and a digit must still read as a value."""
        value = str(value)
        return [name, value] if self(st.booleans()) else [f"{name}={value}"]


def _number(value):
    return repr(float(value))


def _grid(values):
    return ",".join(map(_number, values))


def pairs_document(draw):
    """The text of a pairs JSON document, and its pairs of positive variance."""
    doc = {}
    low, high = 1, 5
    if draw(st.booleans()):
        low = draw(st.integers(-2, 5), st.integers())
        high = draw(st.integers(low + 1, low + 6), st.integers())
        trials = draw(st.integers(1, 9), SMALL_INTS)
        doc["scale"] = {"min_category": low, "max_category": high, "num_trials": trials}
    mean = draw.either(
        st.floats(low, high) if -10 <= low < high <= 20 else st.floats(1.0, 5.0), ANY_FLOAT
    )
    variance = draw.either(st.floats(0.01, 3.0), ANY_NONNEGATIVE)
    keys = draw(st.lists(st.tuples(IDS, ITEMS), min_size=1, max_size=6, unique=True))
    doc["pairs"] = [
        {"user": user, "item": item, "mean": draw(mean), "variance": draw(variance)}
        for user, item in keys
    ]
    return json.dumps(doc), [p for p in doc["pairs"] if p["variance"] > 0]


def predictions(draw, usable):
    """Predictions CSV text for ``usable``, offset from each mean."""
    rows = "".join(
        f"{p['user']},{p['item']},{_number(p['mean'] + draw(st.floats(-3, 3), ANY_FLOAT))}\n"
        for p in usable
    )
    return "user,item,prediction\n" + rows


def mc_flags(draw):
    return [
        f"--metric={draw(st.sampled_from(['rmse', 'mae']))}",
        *draw.flag("--tau", draw(st.integers(1, 40), st.integers(-2, 40))),
        *draw.flag("--seed", draw(st.integers(0, 2**64 - 1), st.integers())),
        *draw.flag("--workers", draw(st.integers(1, 2), st.integers(-1, 2))),
    ]


def scale_flags(draw):
    return [
        *draw.flag("--scale-min", draw(st.just(1), SMALL_INTS)),
        *draw.flag("--scale-max", draw(st.just(5), SMALL_INTS)),
        *draw.flag("--trials", draw(st.just(6), SMALL_INTS)),
    ]


@given(data=st.data())
@settings(max_examples=EXAMPLES, deadline=None)
def test_ingest(data):
    draw = Draw(data)
    ratings = st.lists(draw.either(st.integers(1, 5), SMALL_INTS), min_size=1, max_size=6)
    slices = draw(st.dictionaries(st.tuples(IDS, ITEMS), ratings, max_size=6))
    tensor = "user,item,trial,rating\n" + "".join(
        f"{user},{item},{draw(st.just(t), SMALL_INTS)},{r}\n"
        for (user, item), rs in slices.items()
        for t, r in enumerate(rs, start=1)
    )
    alpha = draw(st.floats(0.01, 0.5), st.floats(0.0, 1.0))
    check_run(
        ["ingest", "tensor.csv", *scale_flags(draw), *draw.flag("--alpha", repr(alpha))],
        {"tensor.csv": tensor},
    )


@given(data=st.data())
@settings(max_examples=EXAMPLES, deadline=None)
def test_estimate(data):
    draw = Draw(data)
    metric = draw(st.sampled_from(["rmse", "mae"]))
    check_run(
        ["estimate", "pairs.json", f"--metric={metric}"],
        {"pairs.json": pairs_document(draw)[0]},
    )


@given(data=st.data())
@settings(max_examples=EXAMPLES, deadline=None)
def test_simulate(data):
    draw = Draw(data)
    text, usable = pairs_document(draw)
    files = {"pairs.json": text}
    argv = ["simulate", "pairs.json", *mc_flags(draw)]
    if draw(st.booleans()):
        files["p.csv"] = predictions(draw, usable)
        argv.append("--predictors=p.csv")
    if draw(st.booleans()):
        argv.append("--clip")
    if draw(st.booleans()):
        argv += draw.flag("--bins", draw(st.integers(2, 12), st.integers(-1, 12)))
    if draw(st.booleans()):
        argv.append("--values-out=values.bin")
    check_run(argv, files)


@given(data=st.data())
@settings(max_examples=EXAMPLES, deadline=None)
def test_rank(data):
    draw = Draw(data)
    text, usable = pairs_document(draw)
    files = {"pairs.json": text}
    systems = [f"s{k}.csv" for k in range(draw(st.integers(1, 3)))]
    for name in systems:
        files[name] = predictions(draw, usable)
    check_run(["rank", "pairs.json", *mc_flags(draw), "--predictors", *systems], files)


def summary(draw, edges):
    """An estimate or simulate output, its histogram on ``edges`` or on
    edges of its own."""
    doc = {
        "mean": draw(st.floats(0.0, 2.0), ANY_FLOAT),
        "variance": draw(st.floats(0.0, 0.01), ANY_NONNEGATIVE),
    }
    kind = draw(st.sampled_from(["none", "shared", "own"]))
    if kind == "own":
        edges = sorted(set(draw(st.lists(draw.either(st.floats(0.0, 2.0), ANY_FLOAT),
                                         min_size=2, max_size=6))))
    if kind != "none" and len(edges) >= 2:
        heights = st.lists(draw.either(st.floats(0.0, 10.0), ANY_NONNEGATIVE),
                           min_size=len(edges) - 1, max_size=len(edges) - 1)
        doc["histogram"] = {"edges": edges, "heights": draw(heights)}
    return json.dumps(doc)


@given(data=st.data())
@settings(max_examples=EXAMPLES, deadline=None)
def test_compare(data):
    draw = Draw(data)
    edges = sorted(set(draw(st.lists(st.floats(0.0, 2.0), min_size=2, max_size=6))))
    check_run(
        ["compare", "barrier.json", "rmse.json"],
        {"barrier.json": summary(draw, edges), "rmse.json": summary(draw, edges)},
    )


@given(data=st.data())
@settings(max_examples=EXAMPLES, deadline=None)
def test_sensitivity(data):
    draw = Draw(data)
    wild = st.one_of(ANY_FLOAT, st.integers())
    counts = draw.either(st.integers(1, 10**6), wild)
    variances = draw.either(st.floats(0.01, 4.0), wild)
    axis = draw(st.sampled_from(["n", "variance"]))
    grid = draw(st.lists(counts if axis == "n" else variances, min_size=1, max_size=4))
    fixed = draw(variances if axis == "n" else counts)
    fmt = draw(st.sampled_from(["json", "csv"]))
    check_run(
        ["sensitivity", f"--axis={axis}", *draw.flag("--grid", _grid(grid)),
         *draw.flag("--fixed", _number(fixed)), *scale_flags(draw), f"--format={fmt}"],
        {},
    )


@given(data=st.data())
@settings(max_examples=EXAMPLES, deadline=None)
def test_rankcurves(data):
    draw = Draw(data)
    if draw(st.booleans()):
        base = draw(st.lists(st.floats(0.01, 3.0), min_size=1, max_size=6),
                    st.lists(ANY_NONNEGATIVE, max_size=6))
        files = {"v.csv": "variance\n" + "".join(f"{_number(v)}\n" for v in base)}
        source = "--variances=v.csv"
    else:
        files = {"pairs.json": pairs_document(draw)[0]}
        source = "--pairs=pairs.json"
    level = draw.either(st.floats(0.0, 2.0), st.one_of(ANY_NONNEGATIVE, ANY_FLOAT))
    deltas = draw(st.lists(level, min_size=1, max_size=3))
    offsets = draw(st.lists(level, min_size=1, max_size=3).map(sorted),
                   st.lists(level, min_size=1, max_size=3))
    noise_scale = draw(st.floats(0.1, 5.0), ANY_FLOAT)
    fmt = draw(st.sampled_from(["json", "csv"]))
    check_run(
        ["rankcurves", source, *draw.flag("--deltas", _grid(deltas)),
         *draw.flag("--offsets", _grid(offsets)),
         *draw.flag("--noise-scale", _number(noise_scale)), f"--format={fmt}"],
        files,
    )


@given(data=st.data())
@settings(max_examples=EXAMPLES, deadline=None)
def test_transfer(data):
    draw = Draw(data)
    argv = [
        "transfer",
        *draw.flag("--rate", _number(draw(st.floats(0.5, 5.0), ANY_FLOAT))),
        *draw.flag("--count", draw(st.integers(1, 2000), st.integers(-1, 2000))),
        *draw.flag("--seed", draw(st.integers(0, 2**64 - 1), st.integers())),
        *draw.flag("--competitor-mean", _number(draw(st.floats(0.0, 2.0), ANY_FLOAT))),
    ]
    if draw(st.booleans()):
        bounds = draw(st.lists(st.floats(0.0, 3.0), min_size=2, max_size=2).map(sorted),
                      st.lists(ANY_FLOAT, min_size=2, max_size=2))
        argv += draw.flag("--bounds", _grid(bounds))
    check_run(argv, {})

"""The traced benchmark run must still find every function it wraps.

``bench/spans.py`` wraps package functions at the names through which the
package looks them up, and its Monte-Carlo hook reads the call's ``dists``
and ``cfg`` arguments. A rename or a moved function in ``src/`` would break
``bench/run.py --trace 1`` without failing any other test; these tests read
the benchmark's target list (without changing it) and check it against the
package.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import magicbarrier
import magicbarrier.cli  # noqa: F401  (the benchmark imports it before tracing)

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


def resolve(module: str, path: str):
    """The raw attribute the tracer replaces, looked up as ``Tracer.installed`` does."""
    owner = getattr(magicbarrier, module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


@pytest.mark.parametrize(
    "name, module, path", [t[:3] for t in SPANS.TARGETS], ids=[t[0] for t in SPANS.TARGETS]
)
def test_target_resolves(name, module, path):
    raw = resolve(module, path)
    fn = raw.__func__ if isinstance(raw, classmethod) else raw
    assert callable(fn)


def test_mc_hook_arguments_exist():
    hooked = [(name, module, path) for name, module, path, hook in SPANS.TARGETS
              if hook is SPANS._mc_attrs]
    assert {name for name, *_ in hooked} == {"mc.simulate_metric", "mc.simulate_metric_shared"}
    for name, module, path in hooked:
        params = inspect.signature(resolve(module, path)).parameters
        assert "dists" in params and "cfg" in params, name

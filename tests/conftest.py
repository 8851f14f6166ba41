import importlib.util
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from magicbarrier import PairTable, ScaleSpec

# hypothesis imports this module in a report hook when a property test fails;
# where libcst is installed the import warns (mypy_extensions deprecations),
# and the suite's warnings-as-errors would turn the report into an
# INTERNALERROR that ends the session. Import it once here, warnings ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def scale_5star():
    return ScaleSpec(1, 5, 5)


def make_tensor_csv(ratings_by_pair, header="user,item,trial,rating"):
    """Tensor CSV text from {(user, item): [ratings...]}."""
    lines = [header]
    for (user, item), ratings in ratings_by_pair.items():
        for t, r in enumerate(ratings, start=1):
            lines.append(f"{user},{item},{t},{r}")
    return "\n".join(lines) + "\n"


def make_dists(variances, means=None, item="i"):
    """Synthetic pair table with the given variances."""
    variances = np.asarray(variances, dtype=float)
    if means is None:
        means = np.full(variances.size, 3.0)
    keys = [(f"u{k}", item) for k in range(variances.size)]
    return PairTable(keys, means, variances)


def load_file(path):
    """The Python file at ``path``, outside the package, as a module; it is
    registered in ``sys.modules`` under its stem, where dataclasses look
    their module up."""
    spec = importlib.util.spec_from_file_location(Path(path).stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# the integer re-rating tensor that scripts/make_synthetic_tensor.py writes
synthetic_tensor = load_file(SCRIPTS / "make_synthetic_tensor.py").synthetic_tensor

import warnings

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


def synthetic_study_tensor(seed=123, users=40, items=5, trials=5):
    """Integer re-rating tensor drawn from the Gaussian rating model."""
    rng = np.random.default_rng(seed)
    pairs = {}
    for u in range(users):
        for i in range(items):
            mu = rng.uniform(1.5, 4.5)
            sigma = np.sqrt(rng.exponential(1 / 2.11))
            pairs[(f"u{u}", f"i{i}")] = [
                int(np.clip(round(rng.normal(mu, sigma)), 1, 5))
                for _ in range(trials)
            ]
    return make_tensor_csv(pairs)

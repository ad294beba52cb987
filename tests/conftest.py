import tracemalloc

import numpy as np
import pytest

from copula_markov import (
    GridCopula,
    IndependenceCopula,
    LowerFrechetCopula,
    UpperFrechetCopula,
)

# 3x3 doubly stochastic matrix whose checkerboard copula is stochastically
# increasing in the first component but not in the second; the workhorse
# example for most grid tests
CHECKER3 = np.array(
    [
        [2 / 3, 0.0, 1 / 3],
        [1 / 3, 1 / 3, 1 / 3],
        [0.0, 2 / 3, 1 / 3],
    ]
)


def random_doubly_stochastic(rng, n, n_perms=None):
    """Convex combination of random permutation matrices."""
    k = n_perms if n_perms is not None else max(2, n)
    weights = rng.dirichlet(np.ones(k))
    m = np.zeros((n, n))
    for w in weights:
        m[np.arange(n), rng.permutation(n)] += w
    return m


@pytest.fixture
def checker3():
    return GridCopula(CHECKER3)


@pytest.fixture
def pi():
    return IndependenceCopula()


@pytest.fixture
def upper():
    return UpperFrechetCopula()


@pytest.fixture
def lower():
    return LowerFrechetCopula()


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def count_validations(monkeypatch):
    """Record every boundary validation of a carrier matrix (one entry per
    call), wherever the package looks the validator up."""
    from copula_markov import core, operators

    calls = []
    validate = core._validate_doubly_stochastic

    def counted(*args, **kwargs):
        calls.append(1)
        return validate(*args, **kwargs)

    monkeypatch.setattr(core, "_validate_doubly_stochastic", counted)
    monkeypatch.setattr(operators, "_validate_doubly_stochastic", counted)
    return calls


def traced_peak(func, *args, **kwargs):
    """Peak bytes that ``func(*args, **kwargs)`` holds at once beyond what
    was allocated before the call, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        func(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

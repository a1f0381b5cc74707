import json

import numpy as np
import pytest

from devex import HypothesisPair, Thresholds, make_pmf


@pytest.fixture
def ex1_pair():
    """Symmetric binary pair with P1(0) = P2(1) = 0.4."""
    return HypothesisPair(
        make_pmf(["0", "1"], [0.4, 0.6]),
        make_pmf(["0", "1"], [0.6, 0.4]),
    )


@pytest.fixture
def ex2_pair():
    """Bernoulli(0.51) vs Bernoulli(0.49)."""
    return HypothesisPair(
        make_pmf(["0", "1"], [0.49, 0.51]),
        make_pmf(["0", "1"], [0.51, 0.49]),
    )


@pytest.fixture
def oracle():
    """The 50-digit reference module, tests/oracle.py; skips without mpmath.
    Any other import failure is an error, not a skip."""
    pytest.importorskip("mpmath")
    import oracle
    return oracle


@pytest.fixture
def zero_th():
    return Thresholds(lambda_upper=0.0, lambda_lower=0.0)


def random_pair(rng: np.random.Generator, size: int) -> HypothesisPair:
    """A strictly positive pair with some separation, for property tests."""
    labels = [str(i) for i in range(size)]
    # entries average 1/size, so a fixed floor would never be met at large size
    floor = min(0.01, 0.5 / size**2)
    while True:
        a = rng.uniform(0.02, 1.0, size=size)
        a /= a.sum()
        b = rng.uniform(0.02, 1.0, size=size)
        b /= b.sum()
        if np.abs(a - b).max() > 1e-4 and a.min() > floor and b.min() > floor:
            return HypothesisPair(make_pmf(labels, list(a)), make_pmf(labels, list(b)))


def write_pair_file(path, alphabet, p1, p2) -> str:
    path.write_text(json.dumps({"alphabet": alphabet, "p1": p1, "p2": p2}),
                    encoding="utf-8")
    return str(path)


@pytest.fixture
def ex1_pair_file(tmp_path):
    return write_pair_file(tmp_path / "ex1.json", ["0", "1"], [0.4, 0.6], [0.6, 0.4])

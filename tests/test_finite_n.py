"""The paper's refined and Azuma bounds hold at every finite n, not only in
the limit: each event's exact probability is at most exp(-n*E), E its
refined or its Azuma component. Checked on binary pairs, where
exact_binary_tail gives the probability."""

import math

import numpy as np

from devex import (
    HypothesisPair,
    InadmissibleThresholds,
    Thresholds,
    azuma_lower_bounds,
    exact_binary_tail,
    make_pmf,
    refined_lower_bounds,
)

# each event and the bound component (i, j) that covers it: i the
# hypothesis it is measured under, j the threshold side (1 upper, 2 lower)
EVENT_COMPONENTS = {"alpha1": (1, 1), "beta1": (2, 1),
                    "alpha2": (1, 2), "beta2": (2, 2)}
NS = (*range(1, 61), 100, 250, 500, 1000, 2000)
PAIRS_PER_KIND = 20


def binary_pair(a, b):
    return HypothesisPair(make_pmf(["0", "1"], [1.0 - a, a]),
                          make_pmf(["0", "1"], [1.0 - b, b]))


def pairs(rng):
    """Dirichlet pairs, skewed pairs with masses down to 1e-6, and near
    pairs: P2 = P1 with 0.05 log-noise, renormalised."""
    for _ in range(PAIRS_PER_KIND):
        yield binary_pair(rng.dirichlet((1, 1))[1], rng.dirichlet((1, 1))[1])
    for _ in range(PAIRS_PER_KIND):
        a, b = 10.0 ** rng.uniform(-6, -1, size=2)
        yield binary_pair(a, 1.0 - b) if rng.random() < 0.5 else binary_pair(a, b)
    for _ in range(PAIRS_PER_KIND):
        p = rng.dirichlet((1, 1))
        q = p * np.exp(0.05 * rng.normal(size=2))
        yield binary_pair(p[1], q[1] / q.sum())


def thresholds(pair, rng):
    """Zero, random inside the window, and 1e-3 and 1e-6 relative from
    both of its edges."""
    d12, d21 = pair.d12, pair.d21
    upper, lower = sorted(rng.uniform(-d21, d12, size=2), reverse=True)
    yield Thresholds(0.0, 0.0)
    yield Thresholds(upper, lower)
    for rel in (1e-3, 1e-6):
        yield Thresholds(d12 * (1.0 - rel), -d21 * (1.0 - rel))


def test_exact_tails_stay_under_both_bounds_at_every_n():
    rng = np.random.default_rng(20)
    checks = inadmissible = 0
    violations = []
    for pair in pairs(rng):
        for th in thresholds(pair, rng):
            try:
                families = {"refined": refined_lower_bounds(pair, th),
                            "azuma": azuma_lower_bounds(pair, th)}
            except InadmissibleThresholds:
                # thresholds within the 1e-12 guard band of an edge
                inadmissible += 1
                continue
            for n in NS:
                tails = exact_binary_tail(pair, n, th)
                for name, key in EVENT_COMPONENTS.items():
                    p = getattr(tails, name)
                    for family, bounds in families.items():
                        exponent = n * bounds.components[key]
                        checks += 1
                        log_p = math.log(p) if p > 0.0 else -math.inf
                        if log_p + exponent > 1e-9 * max(1.0, exponent):
                            violations.append((pair, th, n, name, family))
    assert violations == []
    assert inadmissible == 1
    assert checks == (3 * PAIRS_PER_KIND * 4 - inadmissible) * len(NS) * 4 * 2

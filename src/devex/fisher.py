"""Parametric families, Fisher information, and small-separation limits.

For a smooth family P_theta on a fixed alphabet, the divergence between two
nearby members behaves like D(P_theta || P_theta') ~ J(theta) h^2 / 2 with
h = theta' - theta, and the Chernoff information and the refined exponent
bound both scale as J h^2 / 8. The loosened (Azuma) exponent scales as
a(theta) J h^2 / 8 for some a(theta) in [0, 1], which this module measures
rather than assumes. J(theta) is summed from the family's analytic score.

Limits are estimated by evaluating each ratio on a ladder of offsets and
extrapolating the polynomial through the samples to h = 0 (Neville scheme;
on a halving ladder this is classical Richardson extrapolation).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DegenerateIncrements, DomainError, OutOfDomain
from .exponents import ZERO_THRESHOLDS, compare_report
from .probdist import HypothesisPair, Pmf, make_pmf

# offsets below this cannot resolve the PMF difference in double precision
MIN_OFFSET = 1e-7


class ParametricFamily(namedtuple("ParametricFamily",
                                  "name domain pmf_at score_at")):
    """Indexed family theta -> Pmf on a fixed alphabet, theta in the open
    interval domain = (lo, hi). pmf_at(theta) returns the Pmf; score_at
    returns the per-symbol derivative of ln P_theta(x) as a tuple, the
    analytic score that Fisher information needs; both evaluators must be
    pure so the family stays safe for concurrent use.
    """

    __slots__ = ()

    def contains(self, theta: float) -> bool:
        lo, hi = self.domain
        return lo < theta < hi


class RatioRow(namedtuple("RatioRow", "h divergence_ratio chernoff_ratio "
                                      "el_ratio loosened_ratio")):
    """Ratios at one probe offset h, with theta' = theta + h."""

    __slots__ = ()


FisherLimitReport = namedtuple(
    "FisherLimitReport", "theta j rows divergence_limit chernoff_limit "
                         "el_limit loosened_limit a_theta")


def _require_inside(family: ParametricFamily, theta: float):
    if not family.contains(theta):
        lo, hi = family.domain
        raise OutOfDomain(f"theta = {theta} outside ({lo}, {hi}) for {family.name}")


def fisher_information(family: ParametricFamily, theta: float) -> float:
    """J(theta) = sum_x P_theta(x) * score(x)^2, from the family's analytic
    score. theta must lie inside the domain."""
    _require_inside(family, theta)
    p = family.pmf_at(theta)
    score = family.score_at(theta)
    return math.fsum(w * s * s for w, s in zip(p.probs, score))


def _neville_at_zero(hs, vals) -> float:
    """Value at h = 0 of the polynomial through the points (h_i, v_i)."""
    v = list(vals)
    for j in range(1, len(v)):
        for i in range(len(v) - j):
            v[i] = (hs[i + j] * v[i] - hs[i] * v[i + 1]) / (hs[i + j] - hs[i])
    return v[0]


def limit_ratios(family: ParametricFamily, theta: float, offsets) -> FisherLimitReport:
    """Measure the four exponent ratios on an offset ladder and extrapolate.

    For each h, with theta' = theta + h, the ratios read one zero-threshold
    compare_report of the pair (P_theta, P_theta'), whose exact P_e exponent
    is the Chernoff information C = I(0):

        divergence_ratio = D(P_theta || P_theta') / h^2   -> J/2
        chernoff_ratio   = C / h^2                        -> J/8
        el_ratio         = refined minimum / h^2          -> J/8
        loosened_ratio   = azuma minimum / h^2            -> a(theta) J/8

    a_theta is the extrapolated loosened limit divided by J/8.
    """
    offsets = [float(h) for h in offsets]
    if not offsets:
        raise DomainError("offsets must be nonempty")
    if len(set(offsets)) != len(offsets):
        raise DomainError("offsets must be distinct")
    for h in offsets:
        if not h > 0.0:
            raise DomainError(f"offset {h} must be > 0")
        if h < MIN_OFFSET:
            raise DegenerateIncrements(
                f"offset {h} below {MIN_OFFSET}: the PMF difference is not "
                "resolvable in floating point"
            )
        _require_inside(family, theta - h)
        _require_inside(family, theta + h)
    _require_inside(family, theta)
    j = fisher_information(family, theta)
    base = family.pmf_at(theta)
    rows = []
    for h in offsets:
        pair = HypothesisPair(base, family.pmf_at(theta + h))
        report = compare_report(pair, ZERO_THRESHOLDS)
        h2 = h * h
        rows.append(RatioRow(
            h=h,
            divergence_ratio=pair.d12 / h2,
            chernoff_ratio=report.exact.pe1 / h2,
            el_ratio=report.refined.pe1 / h2,
            loosened_ratio=report.azuma.pe1 / h2,
        ))
    hs = [row.h for row in rows]
    divergence_limit = _neville_at_zero(hs, [r.divergence_ratio for r in rows])
    chernoff_limit = _neville_at_zero(hs, [r.chernoff_ratio for r in rows])
    el_limit = _neville_at_zero(hs, [r.el_ratio for r in rows])
    loosened_limit = _neville_at_zero(hs, [r.loosened_ratio for r in rows])
    return FisherLimitReport(
        theta=theta,
        j=j,
        rows=tuple(rows),
        divergence_limit=divergence_limit,
        chernoff_limit=chernoff_limit,
        el_limit=el_limit,
        loosened_limit=loosened_limit,
        a_theta=loosened_limit / (j / 8.0),
    )


def bernoulli_family() -> ParametricFamily:
    """P_theta = (1-theta, theta) on {0, 1}, theta in (0, 1)."""

    def pmf_at(theta: float) -> Pmf:
        if not 0.0 < theta < 1.0:
            raise OutOfDomain(f"theta = {theta} outside (0, 1) for bernoulli")
        return make_pmf(("0", "1"), (1.0 - theta, theta))

    def score_at(theta: float) -> tuple:
        if not 0.0 < theta < 1.0:
            raise OutOfDomain(f"theta = {theta} outside (0, 1) for bernoulli")
        return (-1.0 / (1.0 - theta), 1.0 / theta)

    return ParametricFamily(
        name="bernoulli", domain=(0.0, 1.0), pmf_at=pmf_at, score_at=score_at
    )


def ternary_family(alpha: float) -> ParametricFamily:
    """Three-symbol family with a theta-independent middle symbol:

        P_theta = (theta(1-alpha)/(1+theta), alpha, (1-alpha)/(1+theta))

    on {0, 1, 2}, theta in (0, inf). The middle symbol carries no parameter
    information (score 0), which is what drives the loosened-bound factor
    a(theta) below 1.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha = {alpha} outside (0, 1)")

    def pmf_at(theta: float) -> Pmf:
        if not theta > 0.0:
            raise OutOfDomain(f"theta = {theta} outside (0, inf) for ternary")
        return make_pmf(
            ("0", "1", "2"),
            (
                theta * (1.0 - alpha) / (1.0 + theta),
                alpha,
                (1.0 - alpha) / (1.0 + theta),
            ),
        )

    def score_at(theta: float) -> tuple:
        if not theta > 0.0:
            raise OutOfDomain(f"theta = {theta} outside (0, inf) for ternary")
        return (1.0 / (theta * (1.0 + theta)), 0.0, -1.0 / (1.0 + theta))

    return ParametricFamily(
        name="ternary", domain=(0.0, math.inf), pmf_at=pmf_at, score_at=score_at
    )

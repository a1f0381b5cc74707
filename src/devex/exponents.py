"""Error exponents for binary hypothesis testing with erasure thresholds.

Exact exponents come from the Fenchel-Legendre rate function of the
normalized log-likelihood ratio (Cramer's theorem on a finite alphabet);
lower bounds come from the refined martingale concentration bound and from
Azuma's inequality. Everything is in nats per sample.

Decision rule conventions: with per-sample thresholds lambda_lower <=
lambda_upper, EVENTS names each of the four error/erasure events, the
hypothesis it is measured under and its threshold: an error-or-erasure under
hypothesis 1 is {L <= n*lambda_upper} and an error is {L <= n*lambda_lower};
mirrored for hypothesis 2. PE_EVENTS pairs them into the two total-error
probabilities. The exact exponents, both bound families, the simulator, the
exact binary oracle and the CLI all read these two tables. The
admissibility window -D(P2||P1) < lambda_lower <= lambda_upper < D(P1||P2)
keeps every exponent finite and positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .concentration import refined_exponent
from .errors import InadmissibleThresholds, NoConvergence, OutOfDomain
from .probdist import HypothesisPair, llr_stats, tilted_moments

_T_TOL = 1e-12
_MAX_ITER = 200
_T_CAP = 64.0
_ADMISSIBILITY_GUARD = 1e-12
_U = 2.0 ** -53                 # unit roundoff of binary64
_TINY = 2.0 ** -1022            # smallest normal binary64

# The decision rule: each event's component key (i, j) and the Thresholds
# field it compares L/n with. i is the hypothesis the event is measured under
# (and of the bounding martingale): {L <= n*lambda} for i = 1, {L >= n*lambda}
# for i = 2. j picks the error probability: 1 error-or-erasure, 2 error-only.
EVENTS = {
    "alpha1": ((1, 1), "lambda_upper"),
    "beta1": ((2, 1), "lambda_lower"),
    "alpha2": ((1, 2), "lambda_lower"),
    "beta2": ((2, 2), "lambda_upper"),
}
COMPONENT_KEYS = tuple(key for key, _ in EVENTS.values())
# pe_j pairs the two events with that j, the hypothesis-1 event first
PE_EVENTS = {f"pe{j}": tuple(name for name, (key, _) in EVENTS.items()
                             if key[1] == j) for j in (1, 2)}


@dataclass(frozen=True)
class Thresholds:
    """Erasure decision thresholds (lambda_upper, lambda_lower), nats/sample."""

    lambda_upper: float
    lambda_lower: float

    def __post_init__(self):
        if not self.lambda_lower <= self.lambda_upper:
            raise InadmissibleThresholds(
                f"lambda_lower = {self.lambda_lower} exceeds "
                f"lambda_upper = {self.lambda_upper}"
            )


ZERO_THRESHOLDS = Thresholds(0.0, 0.0)


@dataclass(frozen=True)
class RateFunctionResult:
    value: float
    t_star: float


@dataclass(frozen=True)
class ExactExponents:
    """Cramer exponents of the six error/erasure probabilities."""

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float
    pe1: float
    pe2: float


@dataclass(frozen=True)
class ExponentBounds:
    """Lower bounds on the P_e exponents plus their four (i, j) components."""

    components: dict
    pe1: float
    pe2: float


@dataclass(frozen=True)
class ExponentReport:
    """Exact exponents and both bound families side by side, with the
    intermediate quantities (epsilons, deltas, gammas) and the per-component
    improvement ratio refined/azuma next to its second-order reference 1/gamma.
    """

    exact: ExactExponents
    refined: ExponentBounds
    azuma: ExponentBounds
    epsilons: dict
    deltas: dict
    gammas: tuple
    gamma_inv: tuple
    improvement: dict


def check_admissible(pair: HypothesisPair, th: Thresholds):
    """Validate thresholds against the pair; returns (D12, D21).

    Strict window with a 1e-12 guard band on both ends.
    """
    d12, d21 = pair.d12, pair.d21
    if th.lambda_lower <= -d21 + _ADMISSIBILITY_GUARD:
        raise InadmissibleThresholds(
            f"lambda_lower = {th.lambda_lower} must exceed "
            f"-D(P2||P1) = {-d21}"
        )
    if th.lambda_upper >= d12 - _ADMISSIBILITY_GUARD:
        raise InadmissibleThresholds(
            f"lambda_upper = {th.lambda_upper} must stay below "
            f"D(P1||P2) = {d12}"
        )
    return d12, d21


def _warm_start(pair: HypothesisPair, r: float, target: float) -> float:
    """First tilt for r in [-D(P1||P2), D(P2||P1)]: two Newton steps, from
    the chord guess, on the cubic Hermite interpolant on [0, 1] of the
    solver's g = ln((H' - lo)/(hi - H')). Its end values come from the pair:
    H'(0) = -D12, H'(1) = D21, H''(0) = stats1.sigma_sq, H''(1) =
    stats2.sigma_sq. The chord guess stands when the result leaves (0, 1)."""
    lo, hi = pair.llr21_range
    d12, d21 = pair.d12, pair.d21
    chord = (r + d12) / (d12 + d21) if d12 + d21 > 0.0 else 0.5
    p0, q0, p1, q1 = -d12 - lo, hi + d12, d21 - lo, hi - d21
    if not min(p0, q0, p1, q1) > 0.0:
        return chord
    g0, dg = math.log(p0 / q0), math.log(p1 / q1 * q0 / p0)
    s0 = (hi - lo) * pair.stats1.sigma_sq / p0 / q0
    s1 = (hi - lo) * pair.stats2.sigma_sq / p1 / q1
    c2, c3 = 3.0 * dg - 2.0 * s0 - s1, s0 + s1 - 2.0 * dg
    x = chord
    for _ in range(2):
        slope = s0 + x * (2.0 * c2 + 3.0 * x * c3)
        if not slope > 0.0:
            return chord
        x -= (g0 + x * (s0 + x * (c2 + x * c3)) - target) / slope
    return x if 0.0 < x < 1.0 else chord


def _settled(pair: HypothesisPair, t: float, resid: float, var: float) -> bool:
    """True when one tilt proves |t - t*| <= _T_TOL/2.

    resid = H'(t) - r and var = H''(t) as tilted_moments computed them.
    err1 bounds the error of the computed H', and var_lo lies below the
    exact H'' on [t - _T_TOL/2, t + _T_TOL/2] (rounding model of Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 3: u per operation,
    2u for ln and exp; |H'''| <= (hi - lo) H'' bounds the change across
    that interval). Were t* farther from t, H' would change by more than
    _T_TOL/2 * var_lo on the way, more than |resid| + err1 >= |H'(t) - r|.
    No bracket end enters the proof.
    """
    if not abs(resid) <= 0.5 * _T_TOL * var:    # implied by the test below
        return False
    lo, hi = pair.llr21_range
    span, y, k = hi - lo, max(-lo, hi), pair.size()
    log_scale = -min(pair.log_p1)       # max |ln P1|
    # each y = ln(P2/P1); each weight's log after the terms, the shift and exp
    eta = _U * (1.01 + 2.0 * y)
    theta = _U * (5.1 * log_scale + abs(t) * (1.1 + 6.1 * y) + 2.1)
    # H': a density ratio within e^(+-2 theta), eta, the products, sums and
    # the subtraction of r, and weights that exp left subnormal
    err1 = eta + 1.01 * theta * span + 6.1 * _U * y + k * _TINY * span
    # H'': the (K - 1)-ulp sum of w*y*y >= 0 and the cancellation in
    # sum(w*y*y)/s - H'**2, then the value and weight errors
    v = var - ((1.01 * k + 14.0) * _U + k * _TINY) * y * y
    if not v > 0.0 or math.sqrt(v) <= eta:
        return False
    shrink = math.exp(-2.0 * theta - 0.5 * _T_TOL * span)
    var_lo = shrink * (math.sqrt(v) - eta) ** 2
    return abs(resid) + err1 <= 0.5 * _T_TOL * var_lo


def rate_function(pair: HypothesisPair, r: float) -> RateFunctionResult:
    """I(r) = sup_t (t*r - H(t)), the rate function of L/n under P1.

    t* solves H'(t) = r by safeguarded Newton in a sign-checked bracket:
    [0, 1], as H'(0) = -D(P1||P2) and H'(1) = D(P2||P1), grown outward by
    doubling steps when r lies outside them. Newton runs on g = ln(H' - lo)
    - ln(hi - H') = ln(r - lo) - ln(hi - r), [lo, hi] = pair.llr21_range,
    with H' and H'' from tilted_moments; that form is linear in t for binary
    alphabets and well scaled near the ends of the range. Inside [0, 1] the
    first tilt is _warm_start's root of the cubic Hermite interpolant of g
    from the pair's cached end values. Each step aims past the root by
    twice the Newton error its change of slope predicts, so both ends close
    in. A step below _T_TOL probes across the root; a failed probe or a
    point outside the bracket gives way to bisection. Points stay within a
    shrinking distance of the midpoint (the ITP projection, Oliveira &
    Takahashi, ACM TOMS 2021), so a solve takes at most the 43 tilts of
    bisection to _T_TOL, plus 2 per doubling step. It stops at whichever
    comes first: a tilt that _settled proves within _T_TOL/2 of t* despite
    rounding, or a bracket at most _T_TOL wide. I comes from the last tilt.
    Interior solves take about 3.5 tilts at K = 64-1024. r must lie
    strictly inside (lo, hi); at or beyond its ends t* is infinite.
    """
    r = float(r)
    lo, hi = pair.llr21_range
    if not lo < r < hi:
        raise OutOfDomain(f"r = {r} outside the open essential range ({lo}, {hi})")
    d12, d21 = pair.d12, pair.d21
    target = math.log((r - lo) / (hi - r))
    grow = -1.0 if r < -d12 else 1.0 if r > d21 else 0.0
    if grow:
        # step out from the nearer end of [0, 1] by 1, 2, 4, ...
        a = b = 0.5 + 0.5 * grow
        t, step = a + grow, 2.0
    else:
        a, b = 0.0, 1.0
        t = _warm_start(pair, r, target)
    # cap: the widest bracket allowed after the next tilt; starting it at 4
    # (16 times a grown bracket) keeps a solve within bisection's tilt count
    cap, probe, last = 4.0, False, None
    for _ in range(_MAX_ITER):
        h, mean, var = tilted_moments(pair, t)
        if mean < r:
            a = t
        elif mean > r:
            b = t
        else:
            break
        if grow:
            if (mean - r) * grow < 0.0:
                t += grow * step
                step *= 2.0
                if abs(t) > _T_CAP:
                    raise OutOfDomain(
                        f"no bracket for r = {r} within |t| <= {_T_CAP}")
                continue
            grow, cap = 0.0, 16.0 * (b - a)
        if b - a <= _T_TOL:
            break
        if _settled(pair, t, mean - r, var):
            break
        cap *= 0.5
        mid = 0.5 * (a + b)
        p, q = mean - lo, hi - mean
        slope = (hi - lo) * var / p / q if p > 0.0 and q > 0.0 else 0.0
        if probe or not 0.0 < slope < math.inf:
            t, probe, last = mid, False, None
        else:
            dt = (target - math.log(p / q)) / slope
            # relative change of slope per unit t since the last Newton point
            curv = abs(1.0 - last[1] / slope) / abs(t - last[0]) if last else 0.0
            over = curv * dt * dt if curv * abs(dt) < 0.5 else 0.0
            last, probe = (t, slope), abs(dt) < 0.5 * _T_TOL
            t += dt + math.copysign(0.25 * _T_TOL + over, dt)
            if not a < t < b:
                t, probe = mid, False
        rho = max(cap - 0.5 * (b - a), 0.0)
        t = min(max(t, mid - rho), mid + rho)
    else:
        raise NoConvergence(f"safeguarded Newton for r = {r} left a bracket "
                            f"wider than {_T_TOL} after {_MAX_ITER} tilts")
    return RateFunctionResult(value=max(0.0, t * r - h), t_star=t)


def chernoff_information(pair: HypothesisPair):
    """(C, t*): the Chernoff information and the minimizer of H on [0, 1].

    H(t) = ln sum P1^(1-t) P2^t is convex with H(0) = H(1) = 0, so
    C = -min H = I(0), the rate function at r = 0 (Cover & Thomas, Thm
    11.9.1). When ln(P2/P1) has no entry of each sign (identical hypotheses,
    or ones that differ only by rounding) H is flat and (0.0, 0.5) is returned.
    """
    lo, hi = pair.llr21_range
    if not lo < 0.0 < hi:
        return 0.0, 0.5
    res = rate_function(pair, 0.0)
    return res.value, res.t_star


@dataclass(frozen=True)
class _Geometry:
    """Intermediate threshold geometry shared by the two bound families;
    stats maps each hypothesis index to its LlrStats."""

    stats: dict
    epsilons: dict
    deltas: dict


def _geometry(pair: HypothesisPair, th: Thresholds) -> _Geometry:
    # degeneracy first: identical hypotheses should read as "no increments"
    # rather than as a threshold problem
    stats = {i: llr_stats(pair, i) for i in (1, 2)}
    d12, d21 = check_admissible(pair, th)
    eps = {key: d12 - getattr(th, side) if key[0] == 1 else d21 + getattr(th, side)
           for key, side in EVENTS.values()}
    deltas = {key: eps[key] / stats[key[0]].d for key in COMPONENT_KEYS}
    return _Geometry(stats=stats, epsilons=eps, deltas=deltas)


def exact_exponents(pair: HypothesisPair, th: Thresholds) -> ExactExponents:
    """Cramer exponents of the six probabilities for the given thresholds.

    An EVENTS event with threshold lambda has exponent I(-lambda) under
    hypothesis 1 and I(-lambda) + lambda under hypothesis 2. The total-error
    exponents take the worse (smaller) of the two PE_EVENTS rates.
    """
    check_admissible(pair, th)
    return _exact_exponents(pair, th)


def _exact_exponents(pair: HypothesisPair, th: Thresholds) -> ExactExponents:
    # thresholds already checked against the pair; one solve per distinct
    # threshold, in EVENTS order (lambda_upper first)
    rates, exps = {}, {}
    for name, ((i, _), side) in EVENTS.items():
        lam = getattr(th, side)
        if lam not in rates:
            rates[lam] = rate_function(pair, -lam).value
        exps[name] = rates[lam] if i == 1 else max(0.0, rates[lam] + lam)
    for pe, (a, b) in PE_EVENTS.items():
        exps[pe] = min(exps[a], exps[b])
    return ExactExponents(**exps)


def _min_over_i(comps: dict) -> ExponentBounds:
    return ExponentBounds(components=comps, **{
        pe: min(comps[EVENTS[a][0]], comps[EVENTS[b][0]])
        for pe, (a, b) in PE_EVENTS.items()})


def _refined_bounds(geo: _Geometry) -> ExponentBounds:
    return _min_over_i({
        key: refined_exponent(geo.deltas[key], geo.stats[key[0]].gamma)
        for key in COMPONENT_KEYS
    })


def _azuma_bounds(geo: _Geometry) -> ExponentBounds:
    return _min_over_i({key: 0.5 * geo.deltas[key] ** 2 for key in COMPONENT_KEYS})


def refined_lower_bounds(pair: HypothesisPair, th: Thresholds) -> ExponentBounds:
    """Refined concentration lower bounds on the two P_e exponents.

    Component (i, j) applies the variance-aware bound to the hypothesis-i
    martingale with normalized deviation delta_{i,j} = eps_{i,j}/d_i; the
    bound for each j is the minimum over i. At zero thresholds the deltas
    reduce to D(P1||P2)/d_1 and D(P2||P1)/d_2.
    """
    return _refined_bounds(_geometry(pair, th))


def azuma_lower_bounds(pair: HypothesisPair, th: Thresholds) -> ExponentBounds:
    """Azuma-based loosened lower bounds delta_{i,j}**2/2, minimized over i."""
    return _azuma_bounds(_geometry(pair, th))


def compare_report(pair: HypothesisPair, th: Thresholds) -> ExponentReport:
    """Exact exponents and both lower-bound families, cross-checked.

    The ordering azuma <= refined <= exact (on the P_e minima, up to 1e-12
    slack) is verified before returning; a violation would mean a numerical
    defect, not a modeling choice, and raises NoConvergence.
    """
    geo = _geometry(pair, th)
    exact = _exact_exponents(pair, th)
    refined = _refined_bounds(geo)
    azuma = _azuma_bounds(geo)
    slack = 1e-12
    for label in PE_EVENTS:
        az, rf, ex = (getattr(azuma, label), getattr(refined, label),
                      getattr(exact, label))
        if az > rf + slack or rf > ex + slack:
            raise NoConvergence(
                f"exponent ordering violated for {label}: "
                f"azuma = {az}, refined = {rf}, exact = {ex}"
            )
    improvement = {
        key: (math.inf if math.isinf(refined.components[key])
              else refined.components[key] / azuma.components[key])
        for key in COMPONENT_KEYS
    }
    gammas = (geo.stats[1].gamma, geo.stats[2].gamma)
    return ExponentReport(
        exact=exact,
        refined=refined,
        azuma=azuma,
        epsilons=dict(geo.epsilons),
        deltas=dict(geo.deltas),
        gammas=gammas,
        gamma_inv=(1.0 / gammas[0], 1.0 / gammas[1]),
        improvement=improvement,
    )

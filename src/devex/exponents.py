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
from collections import namedtuple

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


class Thresholds(namedtuple("Thresholds", "lambda_upper lambda_lower")):
    """Erasure decision thresholds (lambda_upper, lambda_lower), nats/sample."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.lambda_lower <= self.lambda_upper:
            raise InadmissibleThresholds(
                f"lambda_lower = {self.lambda_lower} exceeds "
                f"lambda_upper = {self.lambda_upper}"
            )
        return self


ZERO_THRESHOLDS = Thresholds(0.0, 0.0)


RateFunctionResult = namedtuple("RateFunctionResult", "value t_star")


class ExactExponents(namedtuple(
        "ExactExponents", "alpha1 alpha2 beta1 beta2 pe1 pe2")):
    """Cramer exponents of the six error/erasure probabilities."""

    __slots__ = ()


class ExponentBounds(namedtuple("ExponentBounds", "components pe1 pe2")):
    """Lower bounds on the P_e exponents plus their four (i, j) components,
    a dict keyed by COMPONENT_KEYS."""

    __slots__ = ()


class ExponentReport(namedtuple(
        "ExponentReport", "exact refined azuma epsilons deltas gammas "
                          "gamma_inv improvement")):
    """Exact exponents (ExactExponents) and both bound families
    (ExponentBounds) side by side, with the intermediate quantities
    (epsilons, deltas: dicts keyed by COMPONENT_KEYS; gammas: a pair) and the
    per-component improvement ratio refined/azuma next to its second-order
    reference 1/gamma.
    """

    __slots__ = ()


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


_SolverTable = namedtuple("_SolverTable",
                          "span eta theta0 theta1 err0 err_t cut fit")


def _solver_table(pair: HypothesisPair) -> _SolverTable:
    """The pair's solver constants, built on first use and kept in its
    __dict__ beside the LLR table.

    The rounding model of tilted_moments (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3: u per operation, 2u for ln and exp), with
    y = max |ln(P2/P1)|, span = hi - lo and K symbols: each y is within eta
    of ln(P2/P1); each weight within e^(+-theta) of its exact value, theta =
    theta0 + theta1 |t| (eta times t, the rounding of t y, of the shift and
    of exp and the product); H' within err0 + err_t |t| of the exact mean,
    which adds a (K TINY / s) span term for weights that exp or the product
    left subnormal, with s at least the P1 of a range-end symbol (_tilt);
    and H'' within cut of the variance of the computed y under the computed
    weights. fit holds _warm_start's quintic, or None when H'(0) or H'(1)
    is not strictly inside the range.
    """
    table = pair.__dict__.get("_solver_table")
    if table is not None:
        return table
    lo, hi = pair.llr21_range
    span, y, k = hi - lo, max(-lo, hi), pair.size()
    p1, llr = pair.p1.probs, pair.llr21
    tiny = k * _TINY / min(p1[llr.index(lo)], p1[llr.index(hi)])
    eta = _U * (1.01 + 2.0 * y)
    theta0, theta1 = 3.1 * _U, _U * (1.1 + 3.1 * y + 1.1 * span)
    err0 = eta + 1.01 * theta0 * span + 6.1 * _U * y + tiny * span
    cut = ((1.01 * k + 14.0) * _U + tiny) * y * y
    # positional: keywords cost a microsecond, a fifth of the build at K = 3
    table = pair.__dict__["_solver_table"] = _SolverTable(
        span, eta, theta0, theta1, err0, 1.01 * theta1 * span, cut,
        _quintic_fit(pair))
    return table


def _quintic_fit(pair: HypothesisPair):
    """Coefficients (c0, ..., c5) of the quintic Hermite interpolant on
    [0, 1] of g = ln((H' - lo)/(hi - H')), from g, g' = span H''/(p q) and
    g'' = span/(p q) (H''' - H''^2 (q - p)/(p q)) at both ends, p = H' - lo,
    q = hi - H'. The pair gives H'(0) = -D12, H'(1) = D21, H''(0) and H''(1)
    as the increments' variances, and H''' as their third central moments:
    -sum P1 inc1^3 at 0 and sum P2 inc2^3 at 1. None when an end value of H'
    is not strictly inside the range."""
    lo, hi = pair.llr21_range
    span, d12, d21 = hi - lo, pair.d12, pair.d21
    p0, q0, p1, q1 = -d12 - lo, hi + d12, d21 - lo, hi - d21
    if not min(p0, q0, p1, q1) > 0.0:
        return None
    st1, st2 = pair.stats1, pair.stats2
    m3_0 = -math.fsum(w * x * x * x for w, x in st1.increments)
    m3_1 = math.fsum(w * x * x * x for w, x in st2.increments)
    pq0, pq1 = p0 * q0, p1 * q1
    g0, g1 = math.log(p0 / q0), math.log(p1 / q1)
    s0, s1 = span * st1.sigma_sq / pq0, span * st2.sigma_sq / pq1
    k0 = span / pq0 * (m3_0 - st1.sigma_sq ** 2 * (q0 - p0) / pq0)
    k1 = span / pq1 * (m3_1 - st2.sigma_sq ** 2 * (q1 - p1) / pq1)
    # what the cubic and higher terms must add at t = 1 to g, g', g''
    a = g1 - g0 - s0 - 0.5 * k0
    b = s1 - s0 - k0
    c = k1 - k0
    return (g0, s0, 0.5 * k0, 10.0 * a - 4.0 * b + 0.5 * c,
            -15.0 * a + 7.0 * b - c, 6.0 * a - 3.0 * b + 0.5 * c)


def _warm_start(pair: HypothesisPair, fit, r: float, target: float) -> float:
    """First tilt for r in [-D(P1||P2), D(P2||P1)]: up to three Newton steps,
    from the chord guess, on the pair's quintic fit of the solver's g. The
    chord guess stands when there is no fit, a slope is not positive or the
    result leaves (0, 1)."""
    d12, d21 = pair.d12, pair.d21
    chord = (r + d12) / (d12 + d21) if d12 + d21 > 0.0 else 0.5
    if fit is None:
        return chord
    c0, c1, c2, c3, c4, c5 = fit
    x = chord
    for _ in range(3):
        slope = c1 + x * (2.0 * c2 + x * (3.0 * c3 + x * (4.0 * c4 + x * 5.0 * c5)))
        if not slope > 0.0:
            return chord
        dx = (c0 + x * (c1 + x * (c2 + x * (c3 + x * (c4 + x * c5)))) - target) / slope
        x -= dx
        if abs(dx) <= 1e-9:
            break
    return x if 0.0 < x < 1.0 else chord


def _newton_point(table: _SolverTable, t: float, r: float, h: float,
                  resid: float, var: float):
    """(I, t_N, err): the rate I = t r - h + resid^2/(2 var) at the Newton
    point t_N = t - resid/var, and a bound err on |t_N - t*|. None when
    the tilt is too far from t* for err to reach _T_TOL/2, or when the bound
    on the correction's error exceeds the rounding of t r - h.

    resid = H'(t) - r, var = H''(t) and h = H(t) as tilted_moments computed
    them, with the table's error bounds. var_lo lies below the exact H''(t),
    so rho0 = (|resid| + err1)/var_lo bounds |H'(t) - r|/H''(t). As |H'''|
    <= span H'', H'' stays within e^(+-span rho) of H''(t) on [t - rho,
    t + rho], and with rho = rho0 (1 + 2 span rho0) and span rho0 <= 0.1
    that interval holds t*.
    The exact Newton point then lies within rho expm1(span rho) of t*; the
    computed one adds err1/var for H', rho0 (var/var_lo - 1) for H'' and
    its own rounding. The exact f(t*) - f(t), f(s) = s r - H(s), is
    H''(xi) (t - t*)^2/2; resid^2/(2 var) is within v_err of it.
    """
    span, eta, theta0, theta1, err0, err_t, cut, _ = table
    if not (var > 0.0 and span * resid * resid <= _T_TOL * var * var):
        return None
    v = var - cut
    if not v > 0.0:
        return None
    sd = math.sqrt(v) - eta
    if not sd > 0.0:
        return None
    at = abs(t)
    err1 = err0 + err_t * at
    theta = theta0 + theta1 * at
    var_lo = (1.0 - 2.0 * theta) * sd * sd
    dev = abs(resid) + err1
    rho0 = dev / var_lo
    if not span * rho0 <= 0.1:
        return None
    rho = rho0 * (1.0 + 2.0 * span * rho0)
    spread = var / var_lo - 1.0
    step = resid / var
    corr = 0.5 * resid * step
    v_err = (0.5 * rho0 * dev * (math.expm1(3.0 * span * rho) + spread)
             + err1 * (abs(resid) + 0.5 * err1) / var + 3.1 * _U * corr)
    value = t * r - h
    if not v_err <= theta + _U * (abs(t * r) + abs(h)):
        return None
    t_new = t - step
    err = (rho * math.expm1(span * rho) + err1 / var + rho0 * spread
           + 1.01 * _U * (abs(step) + abs(t_new)))
    return max(0.0, value + corr), t_new, err


def rate_function(pair: HypothesisPair, r: float) -> RateFunctionResult:
    """I(r) = sup_t (t*r - H(t)), the rate function of L/n under P1.

    t* solves H'(t) = r by safeguarded Newton in a sign-checked bracket:
    [0, 1], as H'(0) = -D(P1||P2) and H'(1) = D(P2||P1), grown outward by
    doubling steps when r lies outside them. Newton runs on g = ln(H' - lo)
    - ln(hi - H') = ln(r - lo) - ln(hi - r), [lo, hi] = pair.llr21_range,
    with H' and H'' from tilted_moments; that form is linear in t for binary
    alphabets and well scaled near the ends of the range. Inside [0, 1] the
    first tilt is _warm_start's root of the quintic Hermite interpolant of g
    that _solver_table keeps on the pair. Each step aims past the root by
    twice the Newton error its change of slope predicts, so both ends close
    in. A point outside the bracket gives way to bisection. Points stay
    within a shrinking distance of the midpoint (the ITP projection, Oliveira
    & Takahashi, ACM TOMS 2021), so a solve takes at most 45 tilts, 2 more
    than bisection to _T_TOL, plus 2 per doubling step. It stops at whichever
    comes first: a tilt whose Newton point _newton_point proves within
    _T_TOL/2 of t* despite rounding, which returns that point and I with
    its second-order Legendre correction, or a bracket at most _T_TOL wide,
    which returns the last tilt and its t*r - H. Interior solves take about
    2.2 tilts at K = 64-1024. r must lie strictly inside (lo, hi); at or
    beyond its ends t* is infinite.
    """
    r = float(r)
    lo, hi = pair.llr21_range
    if not lo < r < hi:
        raise OutOfDomain(f"r = {r} outside the open essential range ({lo}, {hi})")
    d12, d21 = pair.d12, pair.d21
    table = _solver_table(pair)
    below, above = r - lo, hi - r
    grow = -1.0 if r < -d12 else 1.0 if r > d21 else 0.0
    if grow:
        # step out from the nearer end of [0, 1] by 1, 2, 4, ...
        a = b = 0.5 + 0.5 * grow
        t, step = a + grow, 2.0
    else:
        a, b = 0.0, 1.0
        t = _warm_start(pair, table.fit, r, math.log(below / above))
    # cap: the widest bracket allowed after the next tilt; 16 times the
    # bracket Newton starts from keeps a solve within 2 tilts of bisection
    cap, last = 16.0, None
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
        point = _newton_point(table, t, r, h, mean - r, var)
        if point is not None and point[2] <= 0.5 * _T_TOL:
            return RateFunctionResult(value=point[0], t_star=point[1])
        cap *= 0.5
        mid = 0.5 * (a + b)
        p, q = mean - lo, hi - mean
        slope = (hi - lo) * var / p / q if p > 0.0 and q > 0.0 else 0.0
        # g(r) - g(H') = ln(1 + x1) - ln(1 + x2) from the residual, so that
        # it cannot cancel near the root as ln(below/above) - ln(p/q) does
        x1, x2 = (r - mean) / above, (mean - r) / below
        if not (0.0 < slope < math.inf and x1 > -1.0 and x2 > -1.0):
            t, last = mid, None
        else:
            dt = (math.log1p(x1) - math.log1p(x2)) / slope
            # relative change of slope per unit t since the last Newton point
            curv = abs(1.0 - last[1] / slope) / abs(t - last[0]) if last else 0.0
            over = curv * dt * dt if curv * abs(dt) < 0.5 else 0.0
            last = (t, slope)
            t += dt + math.copysign(0.25 * _T_TOL + over, dt)
            if not a < t < b:
                t = mid
        rho = max(cap - 0.5 * (b - a), 0.0)
        t = min(max(t, mid - rho), mid + rho)
    else:
        raise NoConvergence(f"safeguarded Newton for r = {r} left a bracket "
                            f"wider than {_T_TOL} after {_MAX_ITER} tilts")
    return RateFunctionResult(value=max(0.0, t * r - h), t_star=t)


def chernoff_information(pair: HypothesisPair) -> RateFunctionResult:
    """(C, t*): the Chernoff information and the minimizer of H on [0, 1].

    H(t) = ln sum P1^(1-t) P2^t is convex with H(0) = H(1) = 0, so
    C = -min H = I(0), the rate function at r = 0 (Cover & Thomas, Thm
    11.9.1). When ln(P2/P1) has no entry of each sign (identical hypotheses,
    or ones that differ only by rounding) H is flat and (0.0, 0.5) is returned.
    """
    lo, hi = pair.llr21_range
    if not lo < 0.0 < hi:
        return RateFunctionResult(0.0, 0.5)
    return rate_function(pair, 0.0)


def _components(pair: HypothesisPair, th: Thresholds):
    """(epsilons, deltas, refined, azuma, gammas): the threshold geometry
    and both bound families, from one walk of EVENTS.

    Component (i, j) has eps = D12 - lambda (i = 1) or D21 + lambda (i = 2),
    delta = eps/d_i, refined exponent refined_exponent(delta, gamma_i) and
    Azuma exponent delta**2/2; each is computed once per distinct
    (hypothesis, threshold), so equal thresholds share them.
    """
    # degeneracy first: identical hypotheses should read as "no increments"
    # rather than as a threshold problem
    stats = (llr_stats(pair, 1), llr_stats(pair, 2))
    d12, d21 = check_admissible(pair, th)
    done, eps, deltas, refined, azuma = {}, {}, {}, {}, {}
    for key, side in EVENTS.values():
        i, lam = key[0], getattr(th, side)
        if (i, lam) not in done:
            st = stats[i - 1]
            e = d12 - lam if i == 1 else d21 + lam
            delta = e / st.d
            done[i, lam] = (e, delta, refined_exponent(delta, st.gamma),
                            0.5 * delta ** 2)
        eps[key], deltas[key], refined[key], azuma[key] = done[i, lam]
    return (eps, deltas, _min_over_i(refined), _min_over_i(azuma),
            (stats[0].gamma, stats[1].gamma))


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


def refined_lower_bounds(pair: HypothesisPair, th: Thresholds) -> ExponentBounds:
    """Refined concentration lower bounds on the two P_e exponents.

    Component (i, j) applies the variance-aware bound to the hypothesis-i
    martingale with normalized deviation delta_{i,j} = eps_{i,j}/d_i; the
    bound for each j is the minimum over i. At zero thresholds the deltas
    reduce to D(P1||P2)/d_1 and D(P2||P1)/d_2.
    """
    return _components(pair, th)[2]


def azuma_lower_bounds(pair: HypothesisPair, th: Thresholds) -> ExponentBounds:
    """Azuma-based loosened lower bounds delta_{i,j}**2/2, minimized over i."""
    return _components(pair, th)[3]


def compare_report(pair: HypothesisPair, th: Thresholds) -> ExponentReport:
    """Exact exponents and both lower-bound families, cross-checked.

    The ordering azuma <= refined <= exact (on the P_e minima, up to 1e-12
    slack) is verified before returning; a violation would mean a numerical
    defect, not a modeling choice, and raises NoConvergence.
    """
    eps, deltas, refined, azuma, gammas = _components(pair, th)
    exact = _exact_exponents(pair, th)
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
    return ExponentReport(
        exact=exact,
        refined=refined,
        azuma=azuma,
        epsilons=eps,
        deltas=deltas,
        gammas=gammas,
        gamma_inv=(1.0 / gammas[0], 1.0 / gammas[1]),
        improvement=improvement,
    )

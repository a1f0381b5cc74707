"""40-digit reference values computed with mpmath, independent of devex.

Every input is taken as given in binary64 and normalized exactly in
high precision, so the reference is the true value for the distribution the
caller asked for, not for any rounding the program applies on the way in.

Root finding is a bracketed Newton iteration on H'(t) = r: H is the log-MGF
ln sum P1 exp(t y), y = ln(P2/P1), which is convex, so the bracket shrinks
every step and Newton converges quadratically once it is close.
"""

from __future__ import annotations

import math

import mpmath as mp

DIGITS = 40
mp.mp.dps = DIGITS
_TOL = mp.mpf(10) ** (-(DIGITS - 6))


def normalize(probs):
    """Exact normalization of binary64 (or mpf) entries."""
    vals = [mp.mpf(p) for p in probs]
    total = mp.fsum(vals)
    return [v / total for v in vals]


class PairOracle:
    """Reference quantities for one hypothesis pair (P1, P2)."""

    def __init__(self, p1, p2):
        self.a = normalize(p1)
        self.b = normalize(p2)
        self.y = [mp.log(q / p) for p, q in zip(self.a, self.b)]
        self.d12 = -mp.fsum(p * v for p, v in zip(self.a, self.y))
        self.d21 = mp.fsum(q * v for q, v in zip(self.b, self.y))

    def llr_stats(self):
        """(d, sigma_sq) of the hypothesis-1 LLR increments."""
        inc = [-v - self.d12 for v in self.y]
        d = max(abs(v) for v in inc)
        return d, mp.fsum(p * v * v for p, v in zip(self.a, inc))

    def _moments(self, t):
        w = [p * mp.exp(t * v) for p, v in zip(self.a, self.y)]
        z = mp.fsum(w)
        m1 = mp.fsum(wi * v for wi, v in zip(w, self.y)) / z
        m2 = mp.fsum(wi * v * v for wi, v in zip(w, self.y)) / z
        return mp.log(z), m1, m2 - m1 * m1

    def _solve(self, r, t0):
        """t with H'(t) = r inside (0, 1); r must lie in (-D12, D21)."""
        lo, hi = mp.mpf(0), mp.mpf(1)
        t = mp.mpf(t0) if 0.0 < t0 < 1.0 else mp.mpf(0.5)
        for _ in range(400):
            h, d1, d2 = self._moments(t)
            g = d1 - r
            if d2 > 0 and abs(g / d2) <= _TOL * abs(t):
                t -= g / d2
                break
            if g < 0:
                lo = t
            else:
                hi = t
            nxt = t - g / d2 if d2 > 0 else (lo + hi) / 2
            t = nxt if lo < nxt < hi else (lo + hi) / 2
        h, _, _ = self._moments(t)
        return t, t * r - h

    def chernoff(self):
        """(C, t*) with C = -min_{t in [0,1]} H(t)."""
        t, value = self._solve(mp.mpf(0), self._float_root(0.0))
        return value, t

    def rate(self, r):
        """I(r) for r in (-D12, D21), where the maximizing t lies in (0, 1)."""
        r = mp.mpf(float(r))
        t, value = self._solve(r, self._float_root(float(r)))
        return value

    def _float_root(self, r):
        """Cheap binary64 start point by bisection; any value in (0,1) works."""
        a = [float(p) for p in self.a]
        y = [float(v) for v in self.y]
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            m = max(mid * v for v in y)
            w = [p * math.exp(mid * v - m) for p, v in zip(a, y)]
            if math.fsum(wi * v for wi, v in zip(w, y)) / math.fsum(w) < r:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def exact_exponents(self, lambda_upper, lambda_lower):
        lam1 = -mp.mpf(float(lambda_upper))
        lam2 = -mp.mpf(float(lambda_lower))
        i1 = self.rate(lam1)
        i2 = self.rate(lam2) if lam2 != lam1 else i1
        out = {
            "alpha1": i1,
            "alpha2": i2,
            "beta1": i2 - lam2,
            "beta2": i1 - lam1,
        }
        out["pe1"] = min(out["alpha1"], out["beta1"])
        out["pe2"] = min(out["alpha2"], out["beta2"])
        return out


def binary_tails(p1, p2, n, lambda_upper, lambda_lower):
    """Exact alpha1, alpha2, beta1, beta2 on a binary alphabet at block n.

    Each value is a list of acceptable references: one value, or two when
    some count k puts L so close to a threshold that the binary64 LLR may
    round either way. Binomial weights come from math.lgamma in the log
    domain (about 1e-12 relative), far inside the 1e-6 tolerance they serve.
    """
    a = normalize(p1)
    b = normalize(p2)
    y0 = float(mp.log(a[0] / b[0]))
    y1 = float(mp.log(a[1] / b[1]))
    log_a = (float(mp.log(a[0])), float(mp.log(a[1])))
    log_b = (float(mp.log(b[0])), float(mp.log(b[1])))
    band = 1e-10 * n * (abs(y0) + abs(y1))
    t_up = n * float(lambda_upper)
    t_lo = n * float(lambda_lower)
    lg_n = math.lgamma(n + 1)
    terms = {key: ([], []) for key in ("alpha1", "alpha2", "beta1", "beta2")}
    for k in range(n + 1):
        choose = lg_n - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        w1 = choose + (n - k) * log_a[0] + k * log_a[1]
        w2 = choose + (n - k) * log_b[0] + k * log_b[1]
        score = (n - k) * y0 + k * y1
        for key, w, diff, leq in (("alpha1", w1, score - t_up, True),
                                  ("alpha2", w1, score - t_lo, True),
                                  ("beta1", w2, score - t_lo, False),
                                  ("beta2", w2, score - t_up, False)):
            if abs(diff) <= band:
                terms[key][1].append(w)
            elif (diff < 0) if leq else (diff > 0):
                terms[key][0].append(w)
    out = {}
    for key, (sure, edge) in terms.items():
        low = _sum_exp(sure)
        out[key] = [low] if not edge else [low, _sum_exp(sure + edge)]
    return out


def _sum_exp(logs):
    if not logs:
        return 0.0
    m = max(logs)
    return math.exp(m) * math.fsum(math.exp(v - m) for v in logs)


def least_squares_slope(points):
    """(slope, intercept) of -ln p regressed on n, in high precision."""
    ns = [mp.mpf(n) for n, _ in points]
    ys = [-mp.log(p) for _, p in points]
    m = len(ns)
    mn = mp.fsum(ns) / m
    my = mp.fsum(ys) / m
    sxy = mp.fsum((x - mn) * (v - my) for x, v in zip(ns, ys))
    sxx = mp.fsum((x - mn) ** 2 for x in ns)
    slope = sxy / sxx
    return slope, my - slope * mn


def binary_kl(p, q):
    p, q = mp.mpf(p), mp.mpf(q)
    val = mp.mpf(0)
    if p > 0:
        val += p * mp.log(p / q)
    if p < 1:
        val += (1 - p) * mp.log((1 - p) / (1 - q))
    return val


def refined_bound(d, sigma_sq, n, alpha, sides=1):
    """sides * exp(-n D((delta+gamma)/(1+gamma) || gamma/(1+gamma)))."""
    d, sigma_sq, alpha = mp.mpf(d), mp.mpf(sigma_sq), mp.mpf(alpha)
    delta, gamma = alpha / d, sigma_sq / (d * d)
    if delta > 1:
        return mp.mpf(0)
    return sides * mp.exp(-n * binary_kl((delta + gamma) / (1 + gamma), gamma / (1 + gamma)))


def quad_cubic_floor(delta, gamma):
    delta, gamma = mp.mpf(delta), mp.mpf(gamma)
    return delta ** 2 / (2 * gamma) - delta ** 3 / (6 * gamma ** 2 * (1 + gamma))


def family_probs(family, alpha, theta):
    """Exact family members, matching devex.fisher's parametrizations."""
    theta = mp.mpf(float(theta))
    if family == "bernoulli":
        return [1 - theta, theta]
    alpha = mp.mpf(float(alpha))
    return [theta * (1 - alpha) / (1 + theta), alpha, (1 - alpha) / (1 + theta)]


def family_fisher(family, alpha, theta):
    theta = mp.mpf(float(theta))
    if family == "bernoulli":
        return 1 / (theta * (1 - theta))
    probs = family_probs(family, alpha, theta)
    scores = [1 / (theta * (1 + theta)), mp.mpf(0), -1 / (1 + theta)]
    return mp.fsum(p * s * s for p, s in zip(probs, scores))


def family_pair(family, alpha, theta, h):
    """Oracle for (P_theta, P_theta') with theta' = theta + h in binary64."""
    return PairOracle(family_probs(family, alpha, theta),
                      family_probs(family, alpha, float(theta) + float(h)))

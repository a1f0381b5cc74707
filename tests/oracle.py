"""50-digit reference values for the tests, from mpmath alone.

Each function computes with exactly the probabilities it is given, binary64
or mpf, and rounds its results to binary64 once. The truth is the exactly
normalised pair, `exact_pair(pair)`: the distribution the caller asked for,
as in `bench/oracle.py`. The stored pair, `pmf.probs` as given, sums to 1
only within a few ulps, so its H(0) = ln sum P1 is not 0. Only tests of the
program's own rounding model check against it: `TestTiltForm`, and
`TestCertifiedStop` until its bound carries the normalisation residues
(ROADMAP item 5).
"""

import mpmath

DPS = 50


def exact(probs):
    """The entries divided by their exact sum, as 50-digit mpf."""
    with mpmath.workdps(DPS):
        total = mpmath.fsum(map(mpmath.mpf, probs))
        return [mpmath.mpf(p) / total for p in probs]


def exact_pair(pair):
    """[exact(P1), exact(P2)] for a pair of pmfs with `.probs`: the truth."""
    return [exact(p.probs) for p in pair]


def _log_ratios(p1, p2):
    return [mpmath.log(mpmath.mpf(b) / a) for a, b in zip(p1, p2)]


def _moments(p1, y, t):
    # H(t) = ln sum P1 e^(t y) and the mean and variance of y under the
    # tilted law; call under workdps(DPS)
    w = [mpmath.mpf(a) * mpmath.exp(t * v) for a, v in zip(p1, y)]
    s = mpmath.fsum(w)
    m1 = mpmath.fsum(wi * v for wi, v in zip(w, y)) / s
    return mpmath.log(s), m1, mpmath.fsum(wi * (v - m1) ** 2 for wi, v in zip(w, y)) / s


def tilt(p1, p2, t):
    """(H, H', H'') at t, y = ln(P2/P1). On a normalised pair H'(0) =
    -D(P1||P2) and H'(1) = D(P2||P1)."""
    with mpmath.workdps(DPS):
        return tuple(map(float, _moments(p1, _log_ratios(p1, p2), mpmath.mpf(t))))


def rate(p1, p2, r):
    """(I(r), t*): Newton on H'(t) = r, bisecting whenever a step leaves
    the sign-checked bracket [-1000, 1000]."""
    with mpmath.workdps(DPS):
        y = _log_ratios(p1, p2)
        r = mpmath.mpf(r)
        lo, hi, t = mpmath.mpf(-1000), mpmath.mpf(1000), mpmath.mpf(0)
        for _ in range(1000):
            h, m1, m2 = _moments(p1, y, t)
            if m1 < r:
                lo = t
            else:
                hi = t
            nxt = t - (m1 - r) / m2
            if not lo < nxt < hi:
                nxt = (lo + hi) / 2
            if abs(nxt - t) < mpmath.mpf(10) ** -40:
                return float(t * r - h), float(t)
            t = nxt
    raise AssertionError(f"oracle did not converge for r = {r}")


def binary_kl(p, q):
    """D((1 - p, p) || (1 - q, q)) for p, q in (0, 1)."""
    with mpmath.workdps(DPS):
        p, q = mpmath.mpf(p), mpmath.mpf(q)
        return float(p * mpmath.log(p / q) + (1 - p) * mpmath.log((1 - p) / (1 - q)))


def wilson(count, total):
    """The 95% Wilson interval for count successes in total trials, with
    the one-sided rule of three at count 0 and count total, and both ends
    clamped to [0, 1]."""
    with mpmath.workdps(DPS):
        n = mpmath.mpf(total)
        if count == 0:
            return 0.0, float(min(1, 3 / n))
        if count == total:
            return float(max(0, 1 - 3 / n)), 1.0
        z2 = 2 * mpmath.erfinv(mpmath.mpf("0.95")) ** 2
        p = count / n
        denom = 1 + z2 / n
        center = (p + z2 / (2 * n)) / denom
        half = mpmath.sqrt(z2 * (p * (1 - p) / n + z2 / (4 * n * n))) / denom
        return float(max(0, center - half)), float(min(1, center + half))

"""Probability mass functions on finite alphabets and information measures.

All logarithms are natural and every divergence is reported in nats. PMFs are
strictly positive by construction: the exponent machinery downstream takes
logs of these entries, and silently flooring a zero would corrupt every
exponent rather than fail loudly.

Sums use math.fsum (correctly rounded), so every scalar produced here is
exactly invariant under a relabeling that permutes both distributions the
same way.

HypothesisPair holds the per-pair LLR table in two tiers, each built in one
pass on the first read of any of its entries: the log ratios with their
range and both divergences (_llr_table), then both LlrStats. Every layer
reads it instead of taking per-symbol logs itself. _tilt is the one home of
the tilt weights and of H, which log_mgf returns; tilted_moments adds H'
and H''.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import mul

from .errors import (
    AlphabetMismatch,
    DegenerateIncrements,
    DomainError,
    DuplicateLabel,
    NonPositiveProbability,
    NotNormalized,
)

# Inputs whose sum deviates from 1 by more than this are rejected instead of
# renormalized; it absorbs decimal-literal round-off without masking bad data.
NORMALIZATION_TOL = 1e-9


class Pmf(namedtuple("Pmf", "labels probs")):
    """Strictly positive probability mass function on a finite alphabet:
    labels (str, ...) and probs (float, ...). len() is the alphabet size.

    Instances are built by make_pmf, which validates and renormalizes.
    Immutable and safe to share between threads.
    """

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.labels)


def make_pmf(labels, probs) -> Pmf:
    """Validate (labels, probs) into a Pmf.

    Probabilities are renormalized only when their sum deviates from 1 by at
    most NORMALIZATION_TOL; a larger deviation is an input error, not noise.
    """
    labels = tuple(str(x) for x in labels)
    probs = tuple(float(p) for p in probs)
    if len(labels) != len(probs):
        raise DomainError(
            f"labels and probs lengths differ: {len(labels)} vs {len(probs)}"
        )
    if len(labels) < 2:
        raise DomainError("alphabet needs at least 2 symbols")
    if len(set(labels)) != len(labels):
        raise DuplicateLabel(f"labels are not pairwise distinct: {labels}")
    for lab, p in zip(labels, probs):
        if not p > 0.0:
            raise NonPositiveProbability(f"P({lab}) = {p} must be > 0")
    total = math.fsum(probs)
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise NotNormalized(f"probabilities sum to {total!r}, not 1")
    if total != 1.0:
        probs = tuple(p / total for p in probs)
    return Pmf(labels, probs)


class HypothesisPair(namedtuple("HypothesisPair", "p1 p2")):
    """Two hypotheses P1, P2 (Pmf) sharing one alphabet (same labels, same
    order), and their per-symbol LLR table in nats: llr12 = ln(P1(x)/P2(x)),
    llr21 = ln(P2(x)/P1(x)), its range llr21_range = (min, max), the
    divergences d12 = D(P1||P2), d21 = D(P2||P1), and the increment
    statistics stats1, stats2 of llr_stats. The first read of an entry
    builds its tier (the first five, or both stats) into the instance
    __dict__ (so this record has no __slots__), where exponents also keeps
    the pair's solver constants; equality, hashing and repr see only p1 and
    p2, and copies made by _make or _replace build their own.
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.p1.labels != self.p2.labels:
            raise AlphabetMismatch(
                f"label lists differ: {self.p1.labels} vs {self.p2.labels}"
            )
        return self

    def __getattr__(self, name):
        # reached only for names not yet in the instance __dict__
        if name in _TABLE:
            entries = zip(_TABLE, _llr_table(self.p1, self.p2))
        elif name in _STATS:
            entries = zip(_STATS, (
                _increment_stats(1, self.p1.probs, self.llr12, self.d12),
                _increment_stats(2, self.p2.probs, self.llr21, self.d21)))
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__.update(entries)
        return self.__dict__[name]

    def size(self) -> int:
        return len(self.p1)


_TABLE = ("llr12", "llr21", "llr21_range", "d12", "d21")
_STATS = ("stats1", "stats2")


def _llr_table(p1: Pmf, p2: Pmf):
    """(llr12, llr21, llr21_range, d12, d21) in one pass. A ratio P2/P1
    with P1 subnormal can overflow; its log ratio is rejected, naming the
    symbol."""
    llr12, llr21 = [], []
    for a, b in zip(p1.probs, p2.probs):
        llr12.append(math.log(a / b))
        llr21.append(math.log(b / a))
    d12 = math.fsum(map(mul, p1.probs, llr12))
    d21 = math.fsum(map(mul, p2.probs, llr21))
    if math.isinf(d12 + d21):
        x = next(x for x, u, v in zip(p1.labels, llr12, llr21) if math.isinf(u + v))
        raise DomainError(f"the log ratio of symbol {x!r} overflows")
    return tuple(llr12), tuple(llr21), (min(llr21), max(llr21)), d12, d21


class LlrStats(namedtuple("LlrStats",
                          "hypothesis_index d sigma_sq gamma increments")):
    """Martingale increment statistics of the log-likelihood ratio under one
    hypothesis: uniform jump bound d, conditional variance sigma_sq, their
    ratio gamma = sigma_sq/d**2, and the per-symbol increment table as
    (probability under the generating measure, increment in nats).
    """

    __slots__ = ()


def kl_divergence(p: Pmf, q: Pmf) -> float:
    """Relative entropy D(p||q) = sum_x p(x) ln(p(x)/q(x)) in nats."""
    return HypothesisPair(p, q).d12


def binary_kl(p: float, q: float) -> float:
    """Binary divergence D(p||q) = p ln(p/q) + (1-p) ln((1-p)/(1-q)).

    p may sit on the boundary of [0,1] (0 ln 0 = 0); q must be interior so
    the result is always finite. Summed as q phi(u) + (1-q) phi(v) with
    u = (p-q)/q, v = (q-p)/(1-q) and phi(u) = (1+u) ln(1+u) - u >= 0: the
    two terms of the plain form cancel to O((p-q)**2) near p = q, these
    cannot, and p - q is formed once instead of from 1 - p and 1 - q.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p = {p} outside [0, 1]")
    if not 0.0 < q < 1.0:
        raise DomainError(f"q = {q} outside (0, 1)")
    return q * _phi((p - q) / q) + (1.0 - q) * _phi((q - p) / (1.0 - q))


def _phi(u: float) -> float:
    """(1+u) ln(1+u) - u for u >= -1. Near u = 0 it is summed as
    u w + 2 (1+u) sum_j w**(2j+1)/(2j+1), w = u/(2+u), the series of
    Loader's bd0 (Fast and Accurate Computation of Binomial Probabilities,
    2000). Its terms shrink by w**2 < 0.01, and the leading u w >= 0
    outweighs all the rest at least 25 to 1, so nothing cancels."""
    if u == -1.0:
        return 1.0
    w = u / (2.0 + u)
    if abs(w) >= 0.1:
        return (1.0 + u) * math.log1p(u) - u
    s, term, w2, j = u * w, 2.0 * (1.0 + u) * w, w * w, 3.0
    while True:
        term *= w2
        nxt = s + term / j
        if nxt == s:
            return s
        s, j = nxt, j + 2.0


def renyi_divergence(p: Pmf, q: Pmf, t: float) -> float:
    """Renyi divergence of order t:

        D_t(p||q) = (1/(t-1)) ln sum_x p(x)^t q(x)^(1-t)

    This convention makes (t-1)*D_t(p2||p1) equal log_mgf(pair, t) for every
    pair, which is the identity the rest of the package relies on. t = 1 is
    rejected; no continuous extension is attempted.
    """
    pair = HypothesisPair(q, p)
    t = float(t)
    if t == 1.0:
        raise DomainError("t = 1 is excluded (Renyi order must differ from 1)")
    return log_mgf(pair, t) / (t - 1.0)


def _tilt(pair: HypothesisPair, t: float):
    """(H(t), w, s): the weights w = P1 exp(t y - M) of the tilt
    P1^(1-t) P2^t, y = ln(P2/P1), their fsum s, and H = M + ln s; no ln P1
    is taken. max(t y) is t times an end of llr21_range, and it is >= 0 (a
    range end is at most a rounding error on the wrong side of 0). While it
    is at most 700 no exp(t y) can overflow: M = 0, and H = ln s cancels
    nothing. Beyond that M = max(t y), so t y - M <= 0. Either way the
    symbol at that end keeps a weight of at least its P1, so s >= that P1:
    s can be far below 1, but only as far as P1 is."""
    lo, hi = pair.llr21_range
    shift = t * (hi if t >= 0.0 else lo)
    p1, y = pair.p1.probs, pair.llr21
    if shift <= 700.0:
        shift = 0.0
        weights = [a * math.exp(t * v) for a, v in zip(p1, y)]
    else:
        weights = [a * math.exp(t * v - shift) for a, v in zip(p1, y)]
    s = math.fsum(weights)
    return shift + math.log(s), weights, s


def tilted_moments(pair: HypothesisPair, t: float):
    """(H(t), H'(t), H''(t)): H as in log_mgf, H' and H'' the mean and
    variance of y = ln(P2/P1) under the tilt P1^(1-t) P2^t. The products
    w*y are formed once: H' is their fsum over s, and H'' is the second
    moment sum(w*y*y)/s less H'**2. Every w*y*y is >= 0, so that sum is
    within (K-1)u relative of the exact one, and the uncentred form loses
    about u*(H'**2 + H'')/H'' relative to cancellation (u = 2**-53). The
    error bounds of exponents._solver_table allow for both, and for weights
    that exp left subnormal, whose error counts relative to s."""
    h, weights, s = _tilt(pair, t)
    y = pair.llr21
    wy = list(map(mul, weights, y))
    mean = math.fsum(wy) / s
    return h, mean, sum(map(mul, wy, y)) / s - mean * mean


def log_mgf(pair: HypothesisPair, t: float) -> float:
    """H(t) = ln sum_x P1(x)^(1-t) P2(x)^t, from _tilt's weights.

    H is convex with H(0) = H(1) = 0; its Legendre transform is the rate
    function of the normalized log-likelihood ratio under P1.
    """
    return _tilt(pair, float(t))[0]


def llr_stats(pair: HypothesisPair, hypothesis_index: int) -> LlrStats:
    """Increment statistics of the LLR martingale under one hypothesis.

    Under hypothesis 1 the increments are ln(P1(x)/P2(x)) - D(P1||P2)
    weighted by P1(x); under hypothesis 2 they are ln(P2(x)/P1(x)) -
    D(P2||P1) weighted by P2(x). d is the largest absolute increment,
    sigma_sq the weighted second moment, gamma their ratio sigma_sq/d**2.
    Computed once per pair and hypothesis and kept on the pair.
    """
    if hypothesis_index == 1:
        return pair.stats1
    if hypothesis_index == 2:
        return pair.stats2
    raise DomainError(f"hypothesis_index must be 1 or 2, got {hypothesis_index}")


def _increment_stats(index, weights, llr, mean) -> LlrStats:
    increments = tuple(y - mean for y in llr)
    d = max(abs(y) for y in increments)
    if d == 0.0:
        raise DegenerateIncrements(
            "identical hypotheses: all increments vanish, gamma is undefined"
        )
    sigma_sq = math.fsum(w * y * y for w, y in zip(weights, increments))
    return LlrStats(hypothesis_index=index, d=d, sigma_sq=sigma_sq,
                    gamma=sigma_sq / (d * d),
                    increments=tuple(zip(weights, increments)))

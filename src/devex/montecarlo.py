"""Simulation-side validation of the exponent machinery.

i.i.d. sampling under either hypothesis, likelihood-ratio decisions with
erasure thresholds, Wilson confidence intervals, an exact binomial tail
oracle for binary alphabets, empirical exponent fits, and martingale traces.

Determinism contract: every random quantity is derived from a counter-based
Philox stream keyed by (seed, purpose, hypothesis, trial), so a trial's draws
depend on nothing but its key; re-keying one Philox per hypothesis gives
each trial the draws of a freshly built one. Trials run on one thread: the
per-trial work holds the GIL, so worker threads cannot speed it up.

Decision rule and tie handling: one scorer, `_llr_scores`, computes
L = sum_j c_j * l_j for each row of counts by adding the products left to
right in binary64, one column at a time. Each product and each sum is one
IEEE-rounded operation, so a row's score is the same number whether it is
scored alone or in a block of any size, and on any CPU: no BLAS kernel
picks the order. The simulator and the exact oracle classify those scores
through one helper, `_event_masks`, which applies the `exponents.EVENTS`
table, so a sample on a threshold classifies identically in both.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import DomainError, NotBinary
from .exponents import EVENTS, PE_EVENTS, Thresholds, check_admissible
from .probdist import HypothesisPair

_Z95 = 1.959963984540054

_PURPOSE_SIMULATE = 0
_PURPOSE_TRACE = 1
_PURPOSE_SLLN = 2

_MAX_SEED = 2 ** 64
_MAX_TRIALS = 2 ** 32 - 1
# trials whose counts are held and scored at once
_BLOCK_TRIALS = 1024

# ln k! for k = 0, 1, ..., len - 1, each as math.lgamma(k + 1) gives it;
# grown on demand by _log_factorials and never written in place
_log_factorial_table = np.empty(0)


def _key(seed: int, purpose: int, hypothesis: int, trial: int):
    # uint64 throughout: a mixed Python-int list goes through float64 and
    # drops the low bits of seeds >= 2**63
    tag = (purpose << 48) | (hypothesis << 32) | trial
    return np.array([seed, tag], dtype=np.uint64)


def _llr_scores(counts, llr):
    """L for each row of a (rows, K) count block: c_1*l_1 + ... + c_K*l_K,
    summed left to right, one numpy operation per column."""
    rows = np.asarray(counts, dtype=np.float64)
    scores = rows[:, 0] * llr[0]
    for j in range(1, llr.size):
        scores += rows[:, j] * llr[j]
    return scores


def _trial_scores(pair: HypothesisPair, hypothesis: int, n: int, trials: int,
                  seed: int, purpose: int):
    """Yield the scores L of trials 0..trials-1 under one hypothesis, in
    blocks of up to _BLOCK_TRIALS, each trial's n-sample counts drawn from
    its own stream: a Philox stream is just (key, counter), so setting one
    generator to the trial's key, counter 0 and an empty buffer gives the
    draws of a Philox freshly built with that key. The state setter reads
    lists about twice as fast as arrays."""
    llr = np.array(pair.llr12)
    probs = np.asarray((pair.p1 if hypothesis == 1 else pair.p2).probs)
    first = _key(seed, purpose, hypothesis, 0)
    rng = np.random.Generator(np.random.Philox(key=first))
    bitgen, key = rng.bit_generator, first.tolist()
    tag = key[1]
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for start in range(0, trials, _BLOCK_TRIALS):
        rows = []
        for trial in range(start, min(start + _BLOCK_TRIALS, trials)):
            key[1] = tag | trial
            bitgen.state = state
            rows.append(rng.multinomial(n, probs))
        yield _llr_scores(rows, llr)


def _event_masks(scores, n: int, th: Thresholds) -> dict:
    """Return each `EVENTS` mask of a block of scores, by name:
    L <= n*lambda for a hypothesis-1 event, L >= n*lambda for a
    hypothesis-2 one, lambda the event's threshold. A score on a threshold
    meets the events of both sides."""
    return {name: (scores <= n * getattr(th, side) if key[0] == 1
                   else scores >= n * getattr(th, side))
            for name, (key, side) in EVENTS.items()}


def _log_factorials(n: int):
    """ln k! for k = 0..n, read-only, bit for bit math.lgamma(k + 1)."""
    global _log_factorial_table
    table = _log_factorial_table
    if table.size <= n:
        start = table.size
        more = np.fromiter(map(math.lgamma, range(start + 1, n + 2)), float,
                           n + 1 - start)
        table = np.concatenate((table, more))
        table.flags.writeable = False
        _log_factorial_table = table
    return table[:n + 1]


def _check_seed(seed: int):
    if not isinstance(seed, int) or not 0 <= seed < _MAX_SEED:
        raise DomainError(f"seed = {seed} must be an unsigned 64-bit integer")


class SimConfig(namedtuple("SimConfig", "n trials seed thresholds priors",
                           defaults=((0.5, 0.5),))):
    """Per-run simulation parameters: n samples per trial, trial count,
    master seed, decision thresholds, and hypothesis priors (pi1, pi2),
    (0.5, 0.5) unless given.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"n = {self.n} must be a positive integer")
        if not isinstance(self.trials, int) or self.trials < 1:
            raise DomainError(f"trials = {self.trials} must be a positive integer")
        if self.trials > _MAX_TRIALS:
            raise DomainError(f"trials = {self.trials} exceeds {_MAX_TRIALS}")
        _check_seed(self.seed)
        pi1, pi2 = self.priors
        if not (0.0 < pi1 < 1.0 and 0.0 < pi2 < 1.0):
            raise DomainError(f"priors {self.priors} must lie in (0, 1)")
        if abs(pi1 + pi2 - 1.0) > 1e-12:
            raise DomainError(f"priors {self.priors} must sum to 1")
        return self


class Estimate(namedtuple("Estimate",
                          "value ci_low ci_high empirical_exponent")):
    """Point estimate with a 95% Wilson interval and -ln(p)/n."""

    __slots__ = ()


SimResult = namedtuple("SimResult", "n trials alpha1 alpha2 beta1 beta2 "
                                   "pe1 pe2 counts")


class TailProbabilities(namedtuple("TailProbabilities",
                                   "alpha1 alpha2 beta1 beta2")):
    """Exact error/erasure probabilities for a binary alphabet."""

    __slots__ = ()


MartingaleTrace = namedtuple("MartingaleTrace",
                             "values hypothesis_index increments")
SllResult = namedtuple("SllResult", "mean stderr")


def _wilson(count: int, total: int):
    """95% Wilson interval; zero (or full) counts fall back to the one-sided
    rule of three, which Wilson handles poorly at these extremes. Its end
    3/total passes 1 when total < 3, so both ends are clamped to [0, 1].
    """
    if count == 0:
        return 0.0, min(1.0, 3.0 / total)
    if count == total:
        return max(0.0, 1.0 - 3.0 / total), 1.0
    phat = count / total
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / total
    center = (phat + z2 / (2.0 * total)) / denom
    half = _Z95 * math.sqrt(
        phat * (1.0 - phat) / total + z2 / (4.0 * total * total)
    ) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _estimate(value: float, lo: float, hi: float, n: int) -> Estimate:
    exponent = math.inf if value == 0.0 else -math.log(value) / n
    return Estimate(value, lo, hi, exponent)


def simulate_test(pair: HypothesisPair, config: SimConfig) -> SimResult:
    """Monte Carlo estimates of the six error/erasure probabilities.

    Each trial under each hypothesis draws n i.i.d. symbols and classifies
    L = sum ln(P1/P2) by _event_masks, counting the EVENTS of that
    hypothesis (a score on a threshold counts in both events it meets).
    P_e estimates mix the PE_EVENTS pair of each by the priors.
    """
    check_admissible(pair, config.thresholds)
    counts = dict.fromkeys(sorted(EVENTS), 0)
    for hyp in (1, 2):
        for scores in _trial_scores(pair, hyp, config.n, config.trials,
                                    config.seed, _PURPOSE_SIMULATE):
            masks = _event_masks(scores, config.n, config.thresholds)
            for name, (key, _) in EVENTS.items():
                if key[0] == hyp:
                    counts[name] += int(np.count_nonzero(masks[name]))
    est = {name: _estimate(counts[name] / config.trials,
                           *_wilson(counts[name], config.trials), config.n)
           for name in EVENTS}
    # a prior mixture of two binomials has no exact Wilson interval; the
    # prior-weighted endpoints contain the mixture whenever each side's
    # interval contains its own value
    pi1, pi2 = config.priors
    est.update({pe: _estimate(pi1 * est[a].value + pi2 * est[b].value,
                              pi1 * est[a].ci_low + pi2 * est[b].ci_low,
                              pi1 * est[a].ci_high + pi2 * est[b].ci_high,
                              config.n)
                for pe, (a, b) in PE_EVENTS.items()})
    return SimResult(n=config.n, trials=config.trials, counts=counts, **est)


def exact_binary_tail(pair: HypothesisPair, n: int,
                      th: Thresholds) -> TailProbabilities:
    """Exact error/erasure probabilities on a binary alphabet.

    L is a linear function of the count k of the second symbol, so each
    probability is a binomial tail sum, accumulated in the log domain.
    Events are the simulator's, from the same _event_masks.
    """
    if pair.size() != 2:
        raise NotBinary(f"alphabet size {pair.size()} is not 2")
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"n = {n} must be a positive integer")
    check_admissible(pair, th)
    ks = np.arange(n + 1)
    scores = _llr_scores(np.stack((n - ks, ks), axis=1), np.array(pair.llr12))
    masks = _event_masks(scores, n, th)
    # ln C(n, k), from lg[k] = ln k!
    lg = _log_factorials(n)
    log_binom = lg[n] - lg - lg[::-1]

    # ln Bin(k; n, P(second symbol)) under each hypothesis, from the log
    # mass of each symbol: log1p(-P(second)) fails at P(second) = 1.0,
    # which a valid pmf can store when the other mass is below an ulp
    logpmfs = {i: log_binom + ks * math.log(p[1]) + (n - ks) * math.log(p[0])
               for i, p in ((1, pair.p1.probs), (2, pair.p2.probs))}

    def tail(logpmf, mask) -> float:
        if not mask.any():
            return 0.0
        selected = logpmf[mask]
        m = selected.max()
        return float(math.exp(m + math.log(np.exp(selected - m).sum())))

    return TailProbabilities(**{name: tail(logpmfs[key[0]], masks[name])
                                for name, (key, _) in EVENTS.items()})


def empirical_exponent(points, *, prefactor_power=0.0):
    """Least-squares exponent fit over (n, p) points under the model
    p ~ c * n**(-prefactor_power) * exp(-n*E).

    Regresses -ln(p) - prefactor_power*ln(n) on n and returns
    (slope, intercept): the slope estimates E and the intercept is -ln(c).
    The intercept absorbs a constant prefactor c only; a prefactor that
    varies with n and is not modelled tilts the slope instead.

    Exact tails of an LLR sum carry the Bahadur-Rao prefactor n**(-1/2)
    (Bahadur & Rao, Ann. Math. Stat. 1960), so pass prefactor_power=0.5 for
    points from `exact_binary_tail`: on the symmetric binary pair
    (0.4, 0.6) vs (0.6, 0.4) over n = 50..400 the default 0 lands 11.4%
    above the Chernoff information and 0.5 lands 2.1% below it. Keep the
    default for Monte Carlo points, whose sampling noise outweighs the
    prefactor.

    Needs at least 3 points with estimates strictly inside (0, 1); zero
    estimates carry no slope information, so the caller must increase
    trials or reduce n. A nonzero prefactor_power also needs every n > 0.
    """
    if not math.isfinite(prefactor_power):
        raise DomainError(f"prefactor_power = {prefactor_power} must be finite")
    points = list(points)
    if len(points) < 3:
        raise DomainError(f"need at least 3 points, got {len(points)}")
    ns = []
    ys = []
    for n, p in points:
        if not 0.0 < p < 1.0:
            raise DomainError(
                f"estimate {p} at n = {n} outside (0, 1); "
                "increase trials or reduce n"
            )
        ns.append(float(n))
        y = -math.log(p)
        if prefactor_power:
            if not n > 0:
                raise DomainError(
                    f"n = {n} must be positive to model an n-power prefactor"
                )
            y -= prefactor_power * math.log(n)
        ys.append(y)
    if len(set(ns)) < 2:
        raise DomainError("points need at least two distinct n values")
    # centred least squares: no ill-conditioned normal equations far from n = 0
    n_bar, y_bar = math.fsum(ns) / len(ns), math.fsum(ys) / len(ys)
    dn = [x - n_bar for x in ns]
    slope = (math.fsum(d * (y - y_bar) for d, y in zip(dn, ys))
             / math.fsum(d * d for d in dn))
    return slope, y_bar - slope * n_bar


def martingale_trace(pair: HypothesisPair, hypothesis: int, n: int,
                     seed: int) -> MartingaleTrace:
    """One realized trace of the LLR estimate martingale.

    Under hypothesis 1 the trace starts at U_0 = n*D(P1||P2), each step
    replaces one expected increment with the realized ln(P1(X_k)/P2(X_k)),
    and U_n is the realized log-likelihood ratio. Under hypothesis 2 the
    trace starts at U_0 = -n*D(P2||P1) and ends at the same realized L; its
    step sizes match the hypothesis-2 increment table up to sign.
    """
    if hypothesis not in (1, 2):
        raise DomainError(f"hypothesis must be 1 or 2, got {hypothesis}")
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"n = {n} must be a positive integer")
    _check_seed(seed)
    llr = np.array(pair.llr12)
    if hypothesis == 1:
        probs = np.asarray(pair.p1.probs)
        drift = pair.d12
        start = n * drift
        steps = llr - drift
    else:
        probs = np.asarray(pair.p2.probs)
        drift = pair.d21
        start = -n * drift
        steps = llr + drift
    rng = np.random.Generator(
        np.random.Philox(key=_key(seed, _PURPOSE_TRACE, hypothesis, 0)))
    symbols = rng.choice(len(llr), size=n, p=probs)
    increments = steps[symbols]
    values = np.empty(n + 1)
    values[0] = start
    np.cumsum(increments, out=values[1:])
    values[1:] += start
    return MartingaleTrace(
        values=tuple(float(v) for v in values),
        hypothesis_index=hypothesis,
        increments=tuple(float(v) for v in increments),
    )


def sll_check(pair: HypothesisPair, hypothesis: int, n: int, trials: int,
              seed: int) -> SllResult:
    """Sample mean of L/n across trials with its standard error.

    The law of large numbers puts the mean near D(P1||P2) under hypothesis 1
    and near -D(P2||P1) under hypothesis 2.
    """
    if hypothesis not in (1, 2):
        raise DomainError(f"hypothesis must be 1 or 2, got {hypothesis}")
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"n = {n} must be a positive integer")
    if not isinstance(trials, int) or trials < 2:
        raise DomainError(f"trials = {trials} must be an integer >= 2 "
                          "(a standard error needs two trials)")
    _check_seed(seed)
    values = np.concatenate(list(_trial_scores(pair, hypothesis, n, trials,
                                               seed, _PURPOSE_SLLN))) / n
    return SllResult(
        mean=float(values.mean()),
        stderr=float(values.std(ddof=1) / math.sqrt(trials)),
    )

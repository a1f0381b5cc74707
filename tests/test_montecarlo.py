import itertools
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import devex
from devex import (
    DomainError,
    Estimate,
    HypothesisPair,
    InadmissibleThresholds,
    NotBinary,
    SimConfig,
    Thresholds,
    compare_report,
    empirical_exponent,
    exact_binary_tail,
    exact_exponents,
    kl_divergence,
    llr_stats,
    make_pmf,
    martingale_trace,
    simulate_test,
    sll_check,
)
from devex import montecarlo
from devex.montecarlo import (
    _BLOCK_TRIALS,
    _PURPOSE_SIMULATE,
    _PURPOSE_SLLN,
    _event_masks,
    _llr_scores,
)

from conftest import random_pair, write_pair_file

ESTIMATE_NAMES = ("alpha1", "alpha2", "beta1", "beta2", "pe1", "pe2")


def results_equal(a, b):
    if (a.n, a.trials, a.counts) != (b.n, b.trials, b.counts):
        return False
    return all(getattr(a, k) == getattr(b, k) for k in ESTIMATE_NAMES)


class TestSimConfig:
    def test_valid(self, zero_th):
        cfg = SimConfig(n=10, trials=100, seed=1, thresholds=zero_th)
        assert cfg.priors == (0.5, 0.5)

    @pytest.mark.parametrize("kwargs", [
        dict(n=0), dict(n=-3), dict(n=2.0),
        dict(trials=0), dict(trials=2 ** 32),
        dict(seed=-1), dict(seed=2 ** 64), dict(seed=1.5),
        dict(priors=(0.0, 1.0)), dict(priors=(0.6, 0.6)),
        dict(priors=(1.2, -0.2)),
    ])
    def test_rejects(self, zero_th, kwargs):
        base = dict(n=10, trials=100, seed=1, thresholds=zero_th)
        base.update(kwargs)
        with pytest.raises(DomainError):
            SimConfig(**base)


class TestSimulateTest:
    def test_rerun_is_identical(self, ex1_pair, zero_th):
        cfg = SimConfig(n=20, trials=500, seed=99, thresholds=zero_th)
        assert results_equal(simulate_test(ex1_pair, cfg),
                             simulate_test(ex1_pair, cfg))

    def test_narrow_events_are_subsets(self, ex1_pair):
        cfg = SimConfig(n=15, trials=2000, seed=3,
                        thresholds=Thresholds(0.02, -0.02))
        res = simulate_test(ex1_pair, cfg)
        assert res.counts["alpha2"] <= res.counts["alpha1"]
        assert res.counts["beta2"] <= res.counts["beta1"]
        assert res.alpha2.value <= res.alpha1.value
        assert res.beta2.value <= res.beta1.value

    def test_near_identical_pair_is_a_coin_flip(self, zero_th):
        pair = HypothesisPair(make_pmf(["0", "1"], [0.5001, 0.4999]),
                              make_pmf(["0", "1"], [0.4999, 0.5001]))
        cfg = SimConfig(n=1, trials=4000, seed=11, thresholds=zero_th)
        res = simulate_test(pair, cfg)
        assert res.pe1.ci_low <= 0.5 <= res.pe1.ci_high

    def test_zero_count_estimate(self, ex1_pair, zero_th):
        # n large enough that no trial errs at this trial count
        cfg = SimConfig(n=4000, trials=50, seed=2, thresholds=zero_th)
        res = simulate_test(ex1_pair, cfg)
        assert res.counts["alpha1"] == 0
        assert res.alpha1 == Estimate(0.0, 0.0, 3.0 / 50, math.inf)

    @pytest.mark.parametrize("trials", [1, 2])
    def test_few_trials_stay_in_unit_interval(self, ex1_pair, zero_th, trials):
        # the rule-of-three end 3/trials passes 1 below 3 trials
        seen = {name: set() for name in ESTIMATE_NAMES[:4]}
        for seed in range(16):
            cfg = SimConfig(n=5, trials=trials, seed=seed, thresholds=zero_th)
            res = simulate_test(ex1_pair, cfg)
            for name in ESTIMATE_NAMES:
                est = getattr(res, name)
                assert 0.0 <= est.ci_low <= est.value <= est.ci_high <= 1.0, (
                    seed, name, est)
            for name in seen:
                seen[name].add(res.counts[name])
        # every estimate met both a zero and a full count
        assert all({0, trials} <= counts for counts in seen.values()), seen

    def test_prior_mixing(self, ex1_pair, zero_th):
        cfg = SimConfig(n=10, trials=1000, seed=4, thresholds=zero_th,
                        priors=(0.25, 0.75))
        res = simulate_test(ex1_pair, cfg)
        want = 0.25 * res.alpha1.value + 0.75 * res.beta1.value
        assert res.pe1.value == pytest.approx(want, rel=1e-12)

    def test_inadmissible_thresholds(self, ex1_pair):
        cfg = SimConfig(n=10, trials=100, seed=1, thresholds=Thresholds(0.9, 0.0))
        with pytest.raises(InadmissibleThresholds):
            simulate_test(ex1_pair, cfg)


def python_score(counts, llr):
    """L of one count row in Python floats: float(c) * l, summed left to
    right."""
    terms = [float(c) * float(l) for c, l in zip(counts, llr)]
    score = terms[0]
    for term in terms[1:]:
        score += term
    return score


def reference_scores(pair, purpose, hyp, n, trials, seed):
    """Per-trial LLR scores, each trial on its own freshly built Philox."""
    llr = np.array(pair.llr12)
    probs = np.asarray((pair.p1 if hyp == 1 else pair.p2).probs)
    scores = []
    for trial in range(trials):
        tag = (purpose << 48) | (hyp << 32) | trial
        key = np.array([seed, tag], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        scores.append(python_score(rng.multinomial(n, probs), llr))
    return scores


def reference_pair(k):
    if k == 2:
        return HypothesisPair(make_pmf(["a", "b"], [0.3, 0.7]),
                              make_pmf(["a", "b"], [0.6, 0.4]))
    return random_pair(np.random.default_rng(16), k)


REFERENCE_SEEDS = (0, 8675309, 2 ** 63 - 1)


class TestAgainstFreshStreams:
    """Re-keyed streams give each trial the draws of a Philox built for it."""

    @pytest.mark.parametrize("k", [2, 16])
    @pytest.mark.parametrize("seed", REFERENCE_SEEDS)
    @pytest.mark.parametrize("trials", [1, 777, 2 * _BLOCK_TRIALS + 1])
    def test_simulate_counts(self, k, seed, trials):
        pair = reference_pair(k)
        n = 30
        th = Thresholds(0.3 * pair.d12, -0.3 * pair.d21)
        cfg = SimConfig(n=n, trials=trials, seed=seed, thresholds=th)
        t_upper = n * th.lambda_upper
        t_lower = n * th.lambda_lower
        s1 = reference_scores(pair, _PURPOSE_SIMULATE, 1, n, trials, seed)
        s2 = reference_scores(pair, _PURPOSE_SIMULATE, 2, n, trials, seed)
        want = {
            "alpha1": sum(s <= t_upper for s in s1),
            "alpha2": sum(s <= t_lower for s in s1),
            "beta1": sum(s >= t_lower for s in s2),
            "beta2": sum(s >= t_upper for s in s2),
        }
        assert simulate_test(pair, cfg).counts == want

    @pytest.mark.parametrize("k", [2, 16])
    @pytest.mark.parametrize("seed", REFERENCE_SEEDS)
    @pytest.mark.parametrize("hyp", [1, 2])
    @pytest.mark.parametrize("trials", [2, 777, 2 * _BLOCK_TRIALS + 1])
    def test_sll_check(self, k, seed, hyp, trials):
        pair = reference_pair(k)
        n = 30
        values = np.array(
            reference_scores(pair, _PURPOSE_SLLN, hyp, n, trials, seed)) / n
        got = sll_check(pair, hyp, n=n, trials=trials, seed=seed)
        assert got.mean == float(values.mean())
        assert got.stderr == float(values.std(ddof=1) / math.sqrt(trials))


def classify(scores, cuts):
    scores = np.asarray(scores)
    return [(scores <= c, scores >= c) for c in cuts]


class TestLlrScores:
    """The block scorer gives each row the left-to-right Python sum, bit for
    bit, whatever block it is scored in."""

    @staticmethod
    def rows_and_llr(k, lattice):
        rng = np.random.default_rng(k)
        if lattice:
            # multiples of one step: many rows of equal exact score that
            # different summation orders round apart, as ex1's +-ln 1.5 does
            llr = np.log(1.5) * rng.integers(-3, 4, size=k)
        else:
            llr = rng.normal(size=k)
        counts = rng.multinomial(10 * k, np.full(k, 1.0 / k), size=300)
        return rng, counts, llr

    @pytest.mark.parametrize("k", [2, 3, 16, 1024])
    @pytest.mark.parametrize("lattice", [False, True])
    def test_rows_score_alike_alone_and_in_any_block(self, k, lattice):
        _, counts, llr = self.rows_and_llr(k, lattice)
        want = [python_score(row, llr).hex() for row in counts]
        block = [float(v).hex() for v in _llr_scores(counts, llr)]
        alone = [float(_llr_scores(row[None, :], llr)[0]).hex()
                 for row in counts]
        # rows 7..217 in a block of another size and offset
        other = [float(v).hex() for v in _llr_scores(counts[7:218], llr)]
        assert block == want
        assert alone == want
        assert other == want[7:218]

    @pytest.mark.parametrize("k", [2, 3, 16, 1024])
    @pytest.mark.parametrize("lattice", [False, True])
    def test_cuts_on_and_beside_row_scores(self, k, lattice):
        # at n = 1 each threshold is its own cut, so _event_masks compares
        # the block's scores with cuts on a row's score and 1 ulp beside it
        rng, counts, llr = self.rows_and_llr(k, lattice)
        exact = np.array([python_score(row, llr) for row in counts])
        scores = _llr_scores(counts, llr)
        for row in rng.choice(len(counts), size=20, replace=False):
            on = exact[row]
            cuts = (np.nextafter(on, -np.inf), on, np.nextafter(on, np.inf))
            for upper, lower in ((cuts[2], cuts[0]), (on, on), (cuts[2], on)):
                masks = _event_masks(scores, 1, Thresholds(upper, lower))
                (le_up, ge_up), (le_low, ge_low) = classify(exact,
                                                            (upper, lower))
                np.testing.assert_array_equal(masks["alpha1"], le_up)
                np.testing.assert_array_equal(masks["beta2"], ge_up)
                np.testing.assert_array_equal(masks["alpha2"], le_low)
                np.testing.assert_array_equal(masks["beta1"], ge_low)


TIE_COMMAND = ("--n", "7", "--trials", "1000", "--seed", "0",
               "--lambda-upper=-0.05792358687259491",
               "--lambda-lower=-0.05792358687259491")


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_tie_output_is_the_same_under_another_blas_kernel(tmp_path):
    # lambda = L(k)/n for a lattice row of ex1 at n = 7: every trial with
    # that k lies on both cuts, where a BLAS dot product's rounding, which
    # depends on the kernel, would decide its events. Prescott needs only
    # SSE3, so it runs on any x86-64 CPU.
    path = write_pair_file(tmp_path / "ex1.json", ["0", "1"],
                           [0.4, 0.6], [0.6, 0.4])
    src = str(Path(devex.__file__).resolve().parents[1])
    outs = []
    for coretype in (None, "Prescott"):
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        proc = subprocess.run(
            [sys.executable, "-m", "devex.cli", "simulate", path, *TIE_COMMAND],
            capture_output=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] and outs[0] == outs[1]


def reference_binary_tail(pair, n, th):
    """exact_binary_tail as first written: one python_score call per k and
    ln k! from math.lgamma on every call."""
    llr = pair.llr12
    ks = np.arange(n + 1)
    scores = np.array([python_score((n - k, k), llr) for k in ks])
    t_upper = n * th.lambda_upper
    t_lower = n * th.lambda_lower
    lg = np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)
    log_binom = math.lgamma(n + 1) - lg - lg[::-1]

    def tail(probs, logs, mask):
        if not mask.any():
            return 0.0
        logpmf = (log_binom + ks * logs[1]
                  + (n - ks) * math.log1p(-probs[1]))
        selected = logpmf[mask]
        m = selected.max()
        return float(math.exp(m + math.log(np.exp(selected - m).sum())))

    p1, p2 = pair.p1.probs, pair.p2.probs
    log_p1 = [math.log(p) for p in p1]
    log_p2 = [math.log(q) for q in p2]
    return montecarlo.TailProbabilities(
        alpha1=tail(p1, log_p1, scores <= t_upper),
        alpha2=tail(p1, log_p1, scores <= t_lower),
        beta1=tail(p2, log_p2, scores >= t_lower),
        beta2=tail(p2, log_p2, scores >= t_upper),
    )


def lattice_thresholds(pair, n, rng, count):
    """Up to `count` thresholds lambda inside the admissible window with
    n*lambda exactly equal to a lattice score L(k)."""
    llr = pair.llr12
    inside = [k for k in range(n + 1)
              if -pair.d21 + 1e-9 < python_score((n - k, k), llr) / n
              < pair.d12 - 1e-9]
    out = []
    for k in rng.permutation(inside)[:count]:
        score = python_score((n - k, k), llr)
        lam = score / n
        for _ in range(8):
            if n * lam == score:
                out.append(lam)
                break
            lam = float(np.nextafter(lam, np.inf if n * lam < score else -np.inf))
    return out


class TestExactBinaryTailMatchesReference:
    def test_repr_identical_on_lattice_ties(self, ex1_pair):
        # at n = 1 every lattice score lies outside the admissible window
        rng = np.random.default_rng(10)
        pairs = [ex1_pair] + [random_pair(rng, 2) for _ in range(5)]
        ties = 0
        for pair, n in itertools.product(pairs, (1, 2, 7, 250, 4000)):
            lams = lattice_thresholds(pair, n, rng, 6)
            ths = [Thresholds(0.0, 0.0),
                   Thresholds(0.3 * pair.d12, -0.3 * pair.d21)]
            ths += [Thresholds(lam, lam) for lam in lams]
            ths += [Thresholds(max(a, b), min(a, b))
                    for a, b in zip(lams[::2], lams[1::2])]
            ties += len(lams)
            for th in ths:
                assert (repr(exact_binary_tail(pair, n, th))
                        == repr(reference_binary_tail(pair, n, th))), (pair, th)
        assert ties >= 60

    def test_log_factorial_table(self):
        # a fresh interpreter, so the lazily grown ln k! table starts empty
        child = (
            "import json, math, sys\n"
            "import devex.montecarlo as mc\n"
            "from devex import HypothesisPair, Thresholds, make_pmf\n"
            "pair = HypothesisPair(make_pmf(['a', 'b'], [0.3, 0.7]),\n"
            "                      make_pmf(['a', 'b'], [0.6, 0.4]))\n"
            "th = Thresholds(0.1, -0.1)\n"
            "sizes = [mc._log_factorial_table.size]\n"
            "tails = {}\n"
            "for n in json.loads(sys.argv[1]):\n"
            "    tails[n] = repr(mc.exact_binary_tail(pair, n, th))\n"
            "    sizes.append(mc._log_factorial_table.size)\n"
            "table = mc._log_factorial_table\n"
            "exact = all(float(v).hex() == math.lgamma(k + 1).hex()\n"
            "            for k, v in enumerate(table))\n"
            "print(json.dumps({'tails': tails, 'sizes': sizes, 'exact': exact}))\n"
        )
        env = dict(os.environ,
                   PYTHONPATH=str(Path(devex.__file__).resolve().parents[1]))

        def run(ns):
            proc = subprocess.run([sys.executable, "-c", child, json.dumps(ns)],
                                  capture_output=True, text=True, timeout=120,
                                  env=env)
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout.splitlines()[-1])

        down = run([4000, 250])
        alone = run([250, 7])
        assert down["sizes"] == [0, 4001, 4001]
        assert alone["sizes"] == [0, 251, 251]
        assert down["exact"] and alone["exact"]
        assert down["tails"]["250"] == alone["tails"]["250"]


class TestHighSeeds:
    """Seeds at and above 2**63 key their streams with every bit."""

    def test_adjacent_seeds_differ(self, ex1_pair, zero_th):
        runs = [simulate_test(ex1_pair, SimConfig(
                    n=20, trials=500, seed=seed, thresholds=zero_th)).counts
                for seed in (2 ** 63 + 1, 2 ** 63 + 2)]
        assert runs[0] != runs[1]
        traces = [martingale_trace(ex1_pair, 1, 50, seed=seed).values
                  for seed in (2 ** 63 + 1, 2 ** 63 + 2)]
        assert traces[0] != traces[1]

    def test_top_seed_is_exact_and_silent(self, ex1_pair, zero_th):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            top = simulate_test(ex1_pair, SimConfig(
                n=20, trials=500, seed=2 ** 64 - 1, thresholds=zero_th))
            sll = sll_check(ex1_pair, 1, n=20, trials=50, seed=2 ** 64 - 1)
            martingale_trace(ex1_pair, 2, 20, seed=2 ** 64 - 1)
        zero = simulate_test(ex1_pair, SimConfig(
            n=20, trials=500, seed=0, thresholds=zero_th))
        assert top.counts != zero.counts
        assert sll != sll_check(ex1_pair, 1, n=20, trials=50, seed=0)


class TestExactBinaryTail:
    def test_rejects_larger_alphabets(self, zero_th):
        p = make_pmf(["a", "b", "c"], [0.2, 0.3, 0.5])
        q = make_pmf(["a", "b", "c"], [0.5, 0.3, 0.2])
        with pytest.raises(NotBinary):
            exact_binary_tail(HypothesisPair(p, q), 5, zero_th)

    def test_single_sample(self, ex1_pair, zero_th):
        tails = exact_binary_tail(ex1_pair, 1, zero_th)
        assert tails.alpha1 == pytest.approx(0.4, abs=1e-12)
        assert tails.alpha2 == pytest.approx(0.4, abs=1e-12)
        assert tails.beta1 == pytest.approx(0.4, abs=1e-12)
        assert tails.beta2 == pytest.approx(0.4, abs=1e-12)

    def test_two_samples_by_hand(self, ex1_pair, zero_th):
        # L(k) = (2k - 2) ln 1.5 for k successes; L <= 0 at k in {0, 1},
        # so alpha1 = 0.6^2 + 2(0.4)(0.6) = 0.64 with the tie included.
        # The k = 1 score evaluates to -5.6e-17 through the shared dot
        # product, so the tie trial sits below the >= cut and beta1 keeps
        # only k = 2; the simulator scores identical counts identically,
        # which is the agreement the oracle promises.
        tails = exact_binary_tail(ex1_pair, 2, zero_th)
        assert tails.alpha1 == pytest.approx(0.64, abs=1e-12)
        assert tails.beta1 == pytest.approx(0.16, abs=1e-12)

    @pytest.mark.parametrize("n", [100, 4000])
    def test_binomial_cdf_cross_check(self, ex1_pair, zero_th, n):
        # the alpha1 event is exactly {k <= n/2} under Bin(n, .6); the k = n/2
        # term is about a third of the sum, so an event off by one misses.
        # n = 4000 tops the benchmark's tail ladder (alpha1 ~ 1.3e-37).
        tails = exact_binary_tail(ex1_pair, n, zero_th)
        # P(k <= n/2) under Bin(n, 3/5), summed exactly over 5**n
        want = sum(math.comb(n, k) * 3 ** k * 2 ** (n - k)
                   for k in range(n // 2 + 1)) / 5 ** n
        assert tails.alpha1 == pytest.approx(want, rel=1e-10)
        if n == 100:
            assert tails.alpha1 == pytest.approx(0.027099197757008555, rel=1e-12)

    def test_erasure_window_splits_events(self, ex1_pair):
        th = Thresholds(0.02, -0.02)
        tails = exact_binary_tail(ex1_pair, 25, th)
        assert tails.alpha2 <= tails.alpha1
        assert tails.beta2 <= tails.beta1
        for v in (tails.alpha1, tails.alpha2, tails.beta1, tails.beta2):
            assert 0.0 <= v <= 1.0

    def test_input_validation(self, ex1_pair, zero_th):
        with pytest.raises(DomainError):
            exact_binary_tail(ex1_pair, 0, zero_th)
        with pytest.raises(InadmissibleThresholds):
            exact_binary_tail(ex1_pair, 5, Thresholds(0.9, 0.0))

    def test_random_pairs_monotone_in_n(self, zero_th):
        # exponential decay: larger n gives smaller error probabilities
        rng = np.random.default_rng(12)
        for _ in range(5):
            pair = random_pair(rng, 2)
            a = exact_binary_tail(pair, 10, zero_th)
            b = exact_binary_tail(pair, 40, zero_th)
            assert b.alpha1 <= a.alpha1 + 1e-12
            assert b.beta1 <= a.beta1 + 1e-12


class TestEventTable:
    """Swapping P1 <-> P2 and (lambda_upper, lambda_lower) -> (-lambda_lower,
    -lambda_upper) swaps alpha_j <-> beta_j, and the erasure window strictly
    separates the j = 1 events from the j = 2 ones. Together these tie each
    event to its hypothesis and threshold in both the exponents and the
    binary oracle, on an asymmetric pair where a swapped threshold shows."""

    P1, P2 = [0.3, 0.7], [0.6, 0.4]

    def pairs(self):
        labels = ["a", "b"]
        pair = HypothesisPair(make_pmf(labels, self.P1), make_pmf(labels, self.P2))
        swapped = HypothesisPair(make_pmf(labels, self.P2),
                                 make_pmf(labels, self.P1))
        th = Thresholds(0.4 * pair.d12, -0.25 * pair.d21)
        return pair, th, swapped, Thresholds(-th.lambda_lower, -th.lambda_upper)

    @staticmethod
    def assert_swapped(a, b, rel):
        for j in (1, 2):
            assert getattr(a, f"alpha{j}") == pytest.approx(
                getattr(b, f"beta{j}"), rel=rel)
            assert getattr(a, f"beta{j}") == pytest.approx(
                getattr(b, f"alpha{j}"), rel=rel)

    def test_exact_exponents(self):
        pair, th, swapped, swapped_th = self.pairs()
        ex = exact_exponents(pair, th)
        self.assert_swapped(ex, exact_exponents(swapped, swapped_th), 1e-9)
        assert ex.alpha1 < ex.alpha2 and ex.beta1 < ex.beta2

    def test_bound_components(self):
        pair, th, swapped, swapped_th = self.pairs()
        a = compare_report(pair, th)
        b = compare_report(swapped, swapped_th)
        for bounds in ("refined", "azuma"):
            ca = getattr(a, bounds).components
            cb = getattr(b, bounds).components
            for (i, j), value in ca.items():
                assert value == pytest.approx(cb[(3 - i, j)], rel=1e-9)
            assert ca[(1, 1)] < ca[(1, 2)] and ca[(2, 1)] < ca[(2, 2)]

    @pytest.mark.parametrize("n", [7, 250, 4000])
    def test_exact_binary_tail(self, n):
        pair, th, swapped, swapped_th = self.pairs()
        tails = exact_binary_tail(pair, n, th)
        self.assert_swapped(tails, exact_binary_tail(swapped, n, swapped_th),
                            1e-12)
        assert tails.alpha2 < tails.alpha1 and tails.beta2 < tails.beta1


class TestSimulatorMatchesOracle:
    def test_small_instance(self, ex1_pair, zero_th):
        cfg = SimConfig(n=5, trials=20000, seed=123, thresholds=zero_th)
        res = simulate_test(ex1_pair, cfg)
        tails = exact_binary_tail(ex1_pair, 5, zero_th)
        for k in ("alpha1", "alpha2", "beta1", "beta2"):
            est = getattr(res, k)
            assert est.ci_low <= getattr(tails, k) <= est.ci_high

    def test_coverage_over_random_instances(self, zero_th):
        # 100 random binary pairs, 4 tail estimates each; the 95% intervals
        # should capture the exact values at close to the nominal rate
        rng = np.random.default_rng(404)
        hits = total = 0
        for _ in range(100):
            while True:
                a = float(rng.uniform(0.05, 0.95))
                b = float(rng.uniform(0.05, 0.95))
                if abs(a - b) > 0.02:
                    break
            pair = HypothesisPair(make_pmf(["0", "1"], [1 - a, a]),
                                  make_pmf(["0", "1"], [1 - b, b]))
            n = int(rng.integers(5, 60))
            cfg = SimConfig(n=n, trials=2000, seed=int(rng.integers(0, 2 ** 32)),
                            thresholds=zero_th)
            res = simulate_test(pair, cfg)
            tails = exact_binary_tail(pair, n, zero_th)
            for k in ("alpha1", "alpha2", "beta1", "beta2"):
                est = getattr(res, k)
                hits += est.ci_low <= getattr(tails, k) <= est.ci_high
                total += 1
        assert total == 400
        assert hits / total >= 0.93


class TestEmpiricalExponent:
    def test_recovers_pure_exponential(self):
        pts = [(n, math.exp(-0.05 * n)) for n in (10, 20, 30, 40)]
        slope, intercept = empirical_exponent(pts)
        assert slope == pytest.approx(0.05, abs=1e-12)
        assert intercept == pytest.approx(0.0, abs=1e-10)

    def test_prefactor_lands_in_intercept(self):
        pts = [(n, 2.0 * math.exp(-0.05 * n)) for n in (20, 40, 60, 80)]
        slope, intercept = empirical_exponent(pts)
        assert slope == pytest.approx(0.05, abs=1e-12)
        assert intercept == pytest.approx(-math.log(2.0), abs=1e-10)

    def test_models_power_prefactor(self):
        c = 0.3
        pts = [(n, c * n ** -0.5 * math.exp(-0.05 * n))
               for n in (20, 40, 60, 80)]
        slope, intercept = empirical_exponent(pts, prefactor_power=0.5)
        assert slope == pytest.approx(0.05, abs=1e-12)
        assert intercept == pytest.approx(-math.log(c), abs=1e-12)

    @pytest.mark.parametrize("power", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_prefactor_power(self, power):
        pts = [(n, math.exp(-0.05 * n)) for n in (10, 20, 30)]
        with pytest.raises(DomainError, match="prefactor_power"):
            empirical_exponent(pts, prefactor_power=power)

    def test_power_prefactor_needs_positive_n(self):
        pts = [(0, 0.5), (10, 0.4), (20, 0.3)]
        with pytest.raises(DomainError, match="positive"):
            empirical_exponent(pts, prefactor_power=0.5)

    def test_needs_three_points(self):
        with pytest.raises(DomainError):
            empirical_exponent([(10, 0.5), (20, 0.25)])

    def test_rejects_boundary_estimates(self):
        with pytest.raises(DomainError, match="trials"):
            empirical_exponent([(10, 0.5), (20, 0.0), (30, 0.1)])
        with pytest.raises(DomainError):
            empirical_exponent([(10, 0.5), (20, 1.0), (30, 0.1)])

    def test_needs_two_distinct_n(self):
        with pytest.raises(DomainError):
            empirical_exponent([(10, 0.5), (10, 0.4), (10, 0.3)])


class TestMartingaleTrace:
    def test_start_and_telescoping(self, ex1_pair):
        n = 50
        trace = martingale_trace(ex1_pair, 1, n, seed=21)
        d12 = kl_divergence(ex1_pair.p1, ex1_pair.p2)
        assert trace.values[0] == pytest.approx(n * d12, rel=1e-15)
        assert len(trace.values) == n + 1
        assert len(trace.increments) == n
        for k in range(1, n + 1):
            step = trace.values[k] - trace.values[k - 1]
            assert step == pytest.approx(trace.increments[k - 1], abs=1e-9)

    def test_increments_come_from_the_table(self, ex1_pair):
        stats = llr_stats(ex1_pair, 1)
        table = [inc for _, inc in stats.increments]
        trace = martingale_trace(ex1_pair, 1, 200, seed=21)
        for inc in trace.increments:
            assert min(abs(inc - t) for t in table) <= 1e-12
            assert abs(inc) <= stats.d + 1e-12

    def test_hypothesis_two_mirror(self, ex1_pair):
        n = 50
        trace = martingale_trace(ex1_pair, 2, n, seed=22)
        d21 = kl_divergence(ex1_pair.p2, ex1_pair.p1)
        assert trace.values[0] == pytest.approx(-n * d21, rel=1e-15)
        table = [-inc for _, inc in llr_stats(ex1_pair, 2).increments]
        for inc in trace.increments:
            assert min(abs(inc - t) for t in table) <= 1e-12

    def test_endpoint_is_the_realized_llr(self, ex1_pair):
        # re-derive the symbol draws from a Philox built with the same key
        from devex.montecarlo import _PURPOSE_TRACE
        n, seed = 80, 31
        for hyp, probs in ((1, ex1_pair.p1.probs), (2, ex1_pair.p2.probs)):
            trace = martingale_trace(ex1_pair, hyp, n, seed=seed)
            tag = (_PURPOSE_TRACE << 48) | (hyp << 32)
            key = np.array([seed, tag], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=key))
            symbols = rng.choice(2, size=n, p=np.asarray(probs))
            llr = ex1_pair.llr12
            realized = math.fsum(llr[s] for s in symbols)
            assert trace.values[-1] == pytest.approx(realized, abs=1e-9)

    def test_long_run_mean_is_near_zero(self, ex1_pair):
        # increments are centered; at 1e6 steps the sample mean should sit
        # within 3 sigma / 1000 of zero
        trace = martingale_trace(ex1_pair, 1, 10 ** 6, seed=5)
        sigma = math.sqrt(llr_stats(ex1_pair, 1).sigma_sq)
        mean = math.fsum(trace.increments) / len(trace.increments)
        assert abs(mean) <= 3.0 * sigma / 1000.0

    def test_input_validation(self, ex1_pair):
        with pytest.raises(DomainError):
            martingale_trace(ex1_pair, 5, 10, seed=1)
        with pytest.raises(DomainError):
            martingale_trace(ex1_pair, 1, 0, seed=1)
        with pytest.raises(DomainError):
            martingale_trace(ex1_pair, 1, 10, seed=-1)


class TestSllCheck:
    def test_mean_tracks_divergence(self, ex1_pair):
        d12 = kl_divergence(ex1_pair.p1, ex1_pair.p2)
        d21 = kl_divergence(ex1_pair.p2, ex1_pair.p1)
        r1 = sll_check(ex1_pair, 1, n=400, trials=200, seed=17)
        r2 = sll_check(ex1_pair, 2, n=400, trials=200, seed=17)
        assert abs(r1.mean - d12) <= 4.0 * r1.stderr
        assert abs(r2.mean + d21) <= 4.0 * r2.stderr

    def test_input_validation(self, ex1_pair):
        with pytest.raises(DomainError):
            sll_check(ex1_pair, 1, n=10, trials=1, seed=1)
        with pytest.raises(DomainError):
            sll_check(ex1_pair, 3, n=10, trials=10, seed=1)
        with pytest.raises(DomainError):
            sll_check(ex1_pair, 1, n=0, trials=10, seed=1)

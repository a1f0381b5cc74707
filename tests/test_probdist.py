import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devex import (
    AlphabetMismatch,
    DegenerateIncrements,
    DomainError,
    DuplicateLabel,
    HypothesisPair,
    NonPositiveProbability,
    NotNormalized,
    binary_kl,
    kl_divergence,
    llr_stats,
    log_mgf,
    make_pmf,
    renyi_divergence,
)
from devex.probdist import Pmf

from conftest import random_pair


class TestMakePmf:
    def test_valid(self):
        p = make_pmf(["0", "1"], [0.4, 0.6])
        assert p.labels == ("0", "1")
        assert p.probs == (0.4, 0.6)
        assert len(p) == 2

    def test_uniform(self):
        p = make_pmf(["a", "b"], [0.5, 0.5])
        assert p.probs == (0.5, 0.5)

    def test_zero_probability_rejected(self):
        with pytest.raises(NonPositiveProbability):
            make_pmf(["0", "1"], [0.0, 1.0])

    def test_negative_probability_rejected(self):
        with pytest.raises(NonPositiveProbability):
            make_pmf(["0", "1"], [-0.1, 1.1])

    def test_bad_sum_rejected(self):
        with pytest.raises(NotNormalized):
            make_pmf(["0", "1"], [0.7, 0.5])

    def test_tiny_drift_renormalized(self):
        p = make_pmf(["0", "1"], [0.4, 0.6 + 5e-10])
        assert math.isclose(sum(p.probs), 1.0, abs_tol=1e-15)

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            make_pmf(["x", "x"], [0.5, 0.5])

    def test_too_few_symbols(self):
        with pytest.raises(DomainError):
            make_pmf(["only"], [1.0])

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            make_pmf(["0", "1", "2"], [0.5, 0.5])

    def test_immutable(self):
        p = make_pmf(["0", "1"], [0.4, 0.6])
        with pytest.raises(AttributeError):
            p.probs = (0.5, 0.5)

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_normalized_inputs_always_accepted(self, raw):
        total = sum(raw)
        probs = [x / total for x in raw]
        p = make_pmf([str(i) for i in range(len(probs))], probs)
        assert math.isclose(sum(p.probs), 1.0, abs_tol=1e-12)


class TestHypothesisPair:
    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            HypothesisPair(make_pmf(["0", "1"], [0.4, 0.6]),
                           make_pmf(["a", "b"], [0.6, 0.4]))

    def test_llr(self, ex1_pair):
        want = (math.log(0.4 / 0.6), math.log(0.6 / 0.4))
        assert ex1_pair.llr12 == want
        assert ex1_pair.size() == 2

    def test_table_entries(self):
        pair = random_pair(np.random.default_rng(6), 5)
        a, b = pair.p1.probs, pair.p2.probs
        assert pair.log_p1 == tuple(math.log(x) for x in a)
        assert pair.llr12 == tuple(math.log(x / y) for x, y in zip(a, b))
        assert pair.llr21 == tuple(math.log(y / x) for x, y in zip(a, b))
        assert pair.d12 == kl_divergence(pair.p1, pair.p2)
        assert pair.d21 == kl_divergence(pair.p2, pair.p1)
        # built once per object, then read back
        assert pair.llr12 is pair.llr12

    def test_table_is_outside_equality_and_hash(self, ex1_pair):
        twin = HypothesisPair(ex1_pair.p1, ex1_pair.p2)
        assert ex1_pair.d12 > 0.0 and ex1_pair.log_p1  # fill one side only
        assert ex1_pair == twin
        assert hash(ex1_pair) == hash(twin)
        assert repr(ex1_pair) == repr(twin)
        assert {ex1_pair: 1}[twin] == 1
        assert ex1_pair != HypothesisPair(ex1_pair.p2, ex1_pair.p1)

    def test_concurrent_first_reads_agree(self):
        # cached_property takes no lock from Python 3.12 on, so first reads
        # of one table may race; each racer computes the same value
        rng = np.random.default_rng(7)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(200):
                    pair = random_pair(rng, 6)
                    want = llr_stats(HypothesisPair(pair.p1, pair.p2), 2)
                    futures = [pool.submit(llr_stats, pair, 2) for _ in range(8)]
                    assert all(f.result(timeout=30) == want for f in futures)
        finally:
            sys.setswitchinterval(old)


class TestKlDivergence:
    def test_identity(self, ex1_pair):
        assert kl_divergence(ex1_pair.p1, ex1_pair.p1) == 0.0

    def test_symmetric_binary_closed_form(self, ex1_pair):
        want = 0.2 * math.log(1.5)
        assert abs(kl_divergence(ex1_pair.p1, ex1_pair.p2) - want) < 1e-15
        assert abs(kl_divergence(ex1_pair.p2, ex1_pair.p1) - want) < 1e-15

    def test_narrow_binary_closed_form(self, ex2_pair):
        want = 0.02 * math.log(51 / 49)
        assert abs(kl_divergence(ex2_pair.p1, ex2_pair.p2) - want) < 1e-15

    def test_alphabet_mismatch(self):
        p = make_pmf(["0", "1"], [0.4, 0.6])
        q = make_pmf(["a", "b"], [0.4, 0.6])
        with pytest.raises(AlphabetMismatch):
            kl_divergence(p, q)
        with pytest.raises(AlphabetMismatch):
            renyi_divergence(p, q, 0.5)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pair = random_pair(rng, int(rng.integers(2, 7)))
            assert kl_divergence(pair.p1, pair.p2) >= 0.0
            assert kl_divergence(pair.p2, pair.p1) >= 0.0


class TestBinaryKl:
    def test_identity(self):
        assert binary_kl(0.4, 0.4) == 0.0

    def test_half_vs_two_fifths(self):
        want = 0.5 * math.log(5 / 4) + 0.5 * math.log(5 / 6)
        assert abs(binary_kl(0.5, 0.4) - want) < 1e-15

    def test_cross_weighted_arguments(self):
        # (17/32, 7/16) arises from delta = 1/6 with gamma = 7/9
        want = (17 / 32) * math.log((17 / 32) / (7 / 16)) \
            + (15 / 32) * math.log((15 / 32) / (9 / 16))
        got = binary_kl(0.53125, 0.4375)
        assert abs(got - want) < 1e-15
        assert abs(got - 1.77e-2) <= 5e-5

    def test_endpoints_finite(self):
        assert binary_kl(0.0, 0.4) == pytest.approx(math.log(1 / 0.6), rel=1e-14)
        assert binary_kl(1.0, 0.4) == pytest.approx(math.log(1 / 0.4), rel=1e-14)

    @pytest.mark.parametrize("p,q", [(-0.1, 0.5), (1.1, 0.5), (0.5, 0.0),
                                     (0.5, 1.0), (0.5, -0.2)])
    def test_domain(self, p, q):
        with pytest.raises(DomainError):
            binary_kl(p, q)

    def test_nonnegative(self):
        for p in np.linspace(0.0, 1.0, 21):
            for q in np.linspace(0.05, 0.95, 19):
                assert binary_kl(float(p), float(q)) >= 0.0

    @pytest.mark.parametrize("gap", [1e-12, 1e-9, 1e-7, 1e-5, 1e-3, 0.1])
    def test_near_identical_matches_mpmath(self, gap):
        # D is O(gap**2) while the plain form's two terms are O(gap) each;
        # measured within 1.6e-15 relative of 50 digits
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        qs = [0.5, 1e-6, 1.0 - 1e-6] + [float(x) for x in rng.uniform(1e-3, 0.999, 20)]
        with mpmath.workdps(50):
            for q in qs:
                for p in (q * (1.0 + gap), q * (1.0 - gap)):
                    if not p < 1.0:
                        continue
                    mp, mq = mpmath.mpf(p), mpmath.mpf(q)
                    want = (mp * mpmath.log(mp / mq)
                            + (1 - mp) * mpmath.log((1 - mp) / (1 - mq)))
                    assert binary_kl(p, q) == pytest.approx(float(want), rel=1e-14,
                                                            abs=0.0), (p, q)


class TestRenyiDivergence:
    @pytest.mark.parametrize("t", [-1.0, 0.25, 2.0])
    def test_identity(self, t):
        p = make_pmf(["0", "1"], [0.3, 0.7])
        assert abs(renyi_divergence(p, p, t)) < 1e-14

    def test_order_zero_vanishes(self, ex1_pair):
        assert abs(renyi_divergence(ex1_pair.p1, ex1_pair.p2, 0.0)) < 1e-14

    def test_order_one_rejected(self, ex1_pair):
        with pytest.raises(DomainError):
            renyi_divergence(ex1_pair.p1, ex1_pair.p2, 1.0)

    @pytest.mark.parametrize("t", [-1.0, 0.25, 0.5, 0.75, 2.0])
    def test_log_mgf_relation(self, ex1_pair, t):
        lhs = log_mgf(ex1_pair, t)
        rhs = (t - 1.0) * renyi_divergence(ex1_pair.p2, ex1_pair.p1, t)
        assert abs(lhs - rhs) < 1e-12

    def test_log_mgf_relation_random(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pair = random_pair(rng, int(rng.integers(2, 6)))
            for t in (-1.0, 0.25, 0.5, 0.75, 2.0):
                lhs = log_mgf(pair, t)
                rhs = (t - 1.0) * renyi_divergence(pair.p2, pair.p1, t)
                assert abs(lhs - rhs) < 1e-12

    @given(st.integers(2, 8).flatmap(lambda k: st.tuples(
               st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k),
               st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))),
           st.floats(-5.0, 5.0).filter(lambda t: t != 1.0))
    @settings(max_examples=100, deadline=None)
    def test_log_mgf_relation_is_exact(self, raw, t):
        # both sides run one log-sum-exp over the same terms; the relation
        # is stated as a quotient because (x/y)*y need not round back to x
        labels = [str(i) for i in range(len(raw[0]))]
        p1, p2 = (make_pmf(labels, [x / sum(r) for x in r]) for r in raw)
        pair = HypothesisPair(p1, p2)
        assert renyi_divergence(p2, p1, t) == log_mgf(pair, t) / (t - 1.0)


class TestLogMgf:
    def test_endpoints_vanish(self, ex1_pair, ex2_pair):
        for pair in (ex1_pair, ex2_pair):
            assert abs(log_mgf(pair, 0.0)) < 1e-14
            assert abs(log_mgf(pair, 1.0)) < 1e-14

    def test_symmetric_midpoint_closed_form(self, ex1_pair):
        want = math.log(2 * math.sqrt(0.24))
        assert abs(log_mgf(ex1_pair, 0.5) - want) < 1e-15

    def test_narrow_midpoint_closed_form(self, ex2_pair):
        want = math.log(2 * math.sqrt(0.49 * 0.51))
        assert abs(log_mgf(ex2_pair, 0.5) - want) < 1e-15

    def test_midpoint_convexity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            pair = random_pair(rng, int(rng.integers(2, 6)))
            t1, t2 = sorted(rng.uniform(-3, 4, size=2))
            mid = log_mgf(pair, 0.5 * (t1 + t2))
            assert mid <= 0.5 * (log_mgf(pair, t1) + log_mgf(pair, t2)) + 1e-12


class TestLlrStats:
    def test_symmetric_binary_hyp1(self, ex1_pair):
        s = llr_stats(ex1_pair, 1)
        d12 = kl_divergence(ex1_pair.p1, ex1_pair.p2)
        assert abs(s.d - 6 * d12) < 1e-12
        assert abs(s.gamma - 2 / 3) < 1e-12

    def test_label_swap_symmetry_of_gamma(self, ex1_pair):
        # this pair maps to itself under swapping the two symbols, which
        # forces the hypothesis-2 statistics to equal the hypothesis-1 ones
        s1 = llr_stats(ex1_pair, 1)
        s2 = llr_stats(ex1_pair, 2)
        assert abs(s2.gamma - s1.gamma) < 1e-12
        assert abs(s2.gamma - 2 / 3) < 1e-12
        assert abs(s2.d - s1.d) < 1e-12

    def test_increment_table(self, ex1_pair):
        s = llr_stats(ex1_pair, 1)
        incs = sorted(inc for _, inc in s.increments)
        assert incs[0] == pytest.approx(-0.48656, abs=5e-6)
        assert incs[1] == pytest.approx(+0.32437, abs=5e-6)

    def test_identical_hypotheses_rejected(self):
        p = make_pmf(["0", "1"], [0.5, 0.5])
        pair = HypothesisPair(p, p)
        assert pair.d12 == pair.d21 == 0.0
        for hyp in (1, 2, 1, 2):    # a failed build is not kept: every call raises
            with pytest.raises(DegenerateIncrements):
                llr_stats(pair, hyp)

    def test_bad_index(self, ex1_pair):
        llr_stats(ex1_pair, 1)
        for bad in (0, 3, -1):
            with pytest.raises(DomainError):
                llr_stats(ex1_pair, bad)

    def test_kept_on_the_pair(self):
        pair = random_pair(np.random.default_rng(11), 5)
        s1, s2 = llr_stats(pair, 1), llr_stats(pair, 2)
        assert s1 is pair.stats1 is llr_stats(pair, 1)
        assert s2 is pair.stats2 is llr_stats(pair, 2)
        twin = HypothesisPair(pair.p1, pair.p2)
        assert repr(llr_stats(twin, 1)) == repr(s1)
        assert repr(llr_stats(twin, 2)) == repr(s2)
        assert pair == twin and hash(pair) == hash(twin)

    def test_invariants_random(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            pair = random_pair(rng, int(rng.integers(2, 7)))
            for hyp in (1, 2):
                s = llr_stats(pair, hyp)
                mean = math.fsum(w * inc for w, inc in s.increments)
                assert abs(mean) < 1e-12
                assert s.sigma_sq <= s.d ** 2 + 1e-15
                assert 0.0 < s.gamma <= 1.0
                assert abs(max(abs(inc) for _, inc in s.increments) - s.d) < 1e-12


class TestLabelSwapInvariance:
    def test_permutation_leaves_scalars_unchanged(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            size = int(rng.integers(2, 6))
            pair = random_pair(rng, size)
            perm = rng.permutation(size)
            labels = [pair.p1.labels[i] for i in perm]
            shuffled = HypothesisPair(
                make_pmf(labels, [pair.p1.probs[i] for i in perm]),
                make_pmf(labels, [pair.p2.probs[i] for i in perm]),
            )
            assert abs(kl_divergence(pair.p1, pair.p2)
                       - kl_divergence(shuffled.p1, shuffled.p2)) < 1e-14
            for t in (0.3, 0.5, 1.7):
                assert abs(log_mgf(pair, t) - log_mgf(shuffled, t)) < 1e-14
            for hyp in (1, 2):
                a, b = llr_stats(pair, hyp), llr_stats(shuffled, hyp)
                assert abs(a.d - b.d) < 1e-14
                assert abs(a.sigma_sq - b.sigma_sq) < 1e-14


def test_pmf_is_plain_dataclass():
    p = make_pmf(["0", "1"], [0.4, 0.6])
    assert isinstance(p, Pmf)

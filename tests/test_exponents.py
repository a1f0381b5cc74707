import math

import numpy as np
import pytest

from devex import (
    ZERO_THRESHOLDS,
    DegenerateIncrements,
    HypothesisPair,
    InadmissibleThresholds,
    OutOfDomain,
    RateFunctionResult,
    Thresholds,
    azuma_lower_bounds,
    binary_kl,
    chernoff_information,
    check_admissible,
    compare_report,
    exact_exponents,
    kl_divergence,
    log_mgf,
    make_pmf,
    rate_function,
    refined_lower_bounds,
)

from devex.concentration import refined_exponent
from devex.exponents import _T_CAP, _T_TOL
from conftest import random_pair


# r at these fractions of the open range of ln(P2/P1): both ends, where H''
# is tiny and t* is large, and the middle
EDGE_FRACTIONS = (1e-6, 1e-3, 0.5, 1 - 1e-3, 1 - 1e-6)
EDGE_SIZES = (2, 3, 4, 8, 64)


def edge_cases(size, count=6):
    """Seeded (pair, r) cases with r near the ends of the range."""
    rng = np.random.default_rng(size)
    for _ in range(count):
        pair = random_pair(rng, size)
        lo, hi = min(pair.llr21), max(pair.llr21)
        for f in EDGE_FRACTIONS:
            yield pair, lo + f * (hi - lo)


def mp_rate(mpmath, pair, r):
    """(I(r), t*) at 50 digits: Newton on H'(t) = r, bisecting whenever a
    step leaves the sign-checked bracket [-1000, 1000]."""
    with mpmath.workdps(50):
        p1 = [mpmath.mpf(a) for a in pair.p1.probs]
        y = [mpmath.log(mpmath.mpf(b) / a) for a, b in zip(p1, pair.p2.probs)]
        r = mpmath.mpf(r)
        lo, hi, t = mpmath.mpf(-1000), mpmath.mpf(1000), mpmath.mpf(0)
        for _ in range(1000):
            w = [a * mpmath.exp(t * v) for a, v in zip(p1, y)]
            s = mpmath.fsum(w)
            m1 = mpmath.fsum(wi * v for wi, v in zip(w, y)) / s
            m2 = mpmath.fsum(wi * (v - m1) ** 2 for wi, v in zip(w, y)) / s
            if m1 < r:
                lo = t
            else:
                hi = t
            nxt = t - (m1 - r) / m2
            if not lo < nxt < hi:
                nxt = (lo + hi) / 2
            if abs(nxt - t) < mpmath.mpf(10) ** -40:
                return float(t * r - mpmath.log(s)), float(t)
            t = nxt
        raise AssertionError(f"oracle did not converge for r = {r}")


def grid_rate(pair, r, span=5.0, step=1e-5):
    """Dense-grid Legendre transform, an independent oracle for I(r)."""
    p1 = np.array(pair.p1.probs)
    p2 = np.array(pair.p2.probs)
    t = np.arange(-span, span + step / 2, step)
    terms = np.outer(1 - t, np.log(p1)) + np.outer(t, np.log(p2))
    m = terms.max(axis=1)
    h = m + np.log(np.exp(terms - m[:, None]).sum(axis=1))
    return float(np.max(t * r - h))


class TestThresholds:
    def test_ordering_enforced(self):
        with pytest.raises(InadmissibleThresholds):
            Thresholds(lambda_upper=-0.01, lambda_lower=0.01)

    def test_zero_window(self):
        assert ZERO_THRESHOLDS.lambda_upper == 0.0
        assert ZERO_THRESHOLDS.lambda_lower == 0.0


class TestCheckAdmissible:
    def test_returns_divergences(self, ex1_pair, zero_th):
        d12, d21 = check_admissible(ex1_pair, zero_th)
        assert d12 == pytest.approx(0.2 * math.log(1.5), rel=1e-14)
        assert d21 == pytest.approx(d12, rel=1e-14)

    def test_upper_bound_enforced(self, ex1_pair):
        d12 = kl_divergence(ex1_pair.p1, ex1_pair.p2)
        with pytest.raises(InadmissibleThresholds):
            check_admissible(ex1_pair, Thresholds(d12, 0.0))
        with pytest.raises(InadmissibleThresholds):
            check_admissible(ex1_pair, Thresholds(d12 - 1e-13, 0.0))
        check_admissible(ex1_pair, Thresholds(d12 - 1e-6, 0.0))

    def test_lower_bound_enforced(self, ex1_pair):
        d21 = kl_divergence(ex1_pair.p2, ex1_pair.p1)
        with pytest.raises(InadmissibleThresholds):
            check_admissible(ex1_pair, Thresholds(0.0, -d21))
        check_admissible(ex1_pair, Thresholds(0.0, -d21 + 1e-6))


class TestRateFunction:
    def test_zero_at_mean(self, ex1_pair):
        d12 = kl_divergence(ex1_pair.p1, ex1_pair.p2)
        res = rate_function(ex1_pair, -d12)
        assert abs(res.value) < 1e-10
        assert abs(res.t_star) < 1e-5

    def test_slope_one_point(self, ex1_pair):
        d21 = kl_divergence(ex1_pair.p2, ex1_pair.p1)
        res = rate_function(ex1_pair, d21)
        assert res.value == pytest.approx(d21, abs=1e-10)
        assert res.t_star == pytest.approx(1.0, abs=1e-5)

    def test_zero_matches_chernoff(self, ex1_pair, ex2_pair):
        for pair in (ex1_pair, ex2_pair):
            res = chernoff_information(pair)
            assert isinstance(res, RateFunctionResult)
            assert res == rate_function(pair, 0.0)

    def test_legendre_consistency(self, ex1_pair):
        res = rate_function(ex1_pair, 0.01)
        recomputed = res.t_star * 0.01 - log_mgf(ex1_pair, res.t_star)
        assert res.value == pytest.approx(recomputed, abs=1e-12)

    def test_matches_grid_oracle(self, ex1_pair):
        for r in (-0.05, -0.01, 0.0, 0.02, 0.06):
            assert rate_function(ex1_pair, r).value == pytest.approx(
                grid_rate(ex1_pair, r), abs=1e-8)

    def test_out_of_domain(self, ex1_pair):
        hi = max(ex1_pair.llr12)          # ln(P2/P1) essential sup is -min llr
        with pytest.raises(OutOfDomain):
            rate_function(ex1_pair, hi + 0.1)
        with pytest.raises(OutOfDomain):
            rate_function(ex1_pair, -hi - 0.1)
        with pytest.raises(OutOfDomain):
            rate_function(ex1_pair, hi)   # boundary excluded

    def test_convex_and_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            pair = random_pair(rng, int(rng.integers(2, 6)))
            y = [math.log(b / a) for a, b in zip(pair.p1.probs, pair.p2.probs)]
            lo, hi = min(y), max(y)
            rs = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 9)
            vals = [rate_function(pair, float(r)).value for r in rs]
            assert all(v >= 0.0 for v in vals)
            for i in range(1, len(vals) - 1):
                mid = 0.5 * (vals[i - 1] + vals[i + 1])
                assert vals[i] <= mid + 1e-9


class TestChernoffInformation:
    def test_identical_pair_zero(self):
        p = make_pmf(["0", "1"], [0.3, 0.7])
        c, _ = chernoff_information(HypothesisPair(p, p))
        # the log-sum-exp is not bitwise zero across t, only zero to rounding
        assert 0.0 <= c <= 1e-14

    def test_symmetric_binary(self, ex1_pair):
        c, t_star = chernoff_information(ex1_pair)
        assert c == pytest.approx(-math.log(2 * math.sqrt(0.24)), abs=1e-12)
        assert t_star == pytest.approx(0.5, abs=1e-6)

    def test_narrow_binary(self, ex2_pair):
        c, t_star = chernoff_information(ex2_pair)
        assert c == pytest.approx(-math.log(2 * math.sqrt(0.49 * 0.51)), abs=1e-12)
        assert t_star == pytest.approx(0.5, abs=1e-6)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pair = random_pair(rng, int(rng.integers(2, 6)))
            c1, _ = chernoff_information(pair)
            c2, _ = chernoff_information(HypothesisPair(pair.p2, pair.p1))
            assert abs(c1 - c2) <= 1e-12

    def test_flat_pairs_skip_the_solver(self):
        p = make_pmf(["0", "1"], [0.3, 0.7])
        # equal up to one ulp in P(1): ln(P2/P1) is (0, 2.2e-16), never negative,
        # so I(0) is outside rate_function's domain
        q1 = make_pmf(["0", "1"], [0.41625354317375146, 0.5837464568262485])
        q2 = make_pmf(["0", "1"], [0.41625354317375146, 0.5837464568262486])
        for pair in (HypothesisPair(p, p), HypothesisPair(q1, q2),
                     HypothesisPair(q2, q1)):
            res = chernoff_information(pair)
            assert res == (0.0, 0.5) and isinstance(res, RateFunctionResult)
        with pytest.raises(OutOfDomain):
            rate_function(HypothesisPair(q1, q2), 0.0)

    @pytest.mark.parametrize("size", [2, 3, 4, 16, 64])
    def test_matches_mpmath_oracle(self, size):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(size)
        with mpmath.workdps(50):
            for _ in range(8):
                pair = random_pair(rng, size)
                c, t_star = chernoff_information(pair)
                p1 = [mpmath.mpf(a) for a in pair.p1.probs]
                y = [mpmath.log(mpmath.mpf(b) / a)
                     for a, b in zip(p1, pair.p2.probs)]
                # Newton on H'(t) = 0 with H'' the tilted variance; H' is
                # strictly increasing, so the root it reaches is the only one
                t = mpmath.mpf(0.5)
                for _ in range(100):
                    w = [a * mpmath.exp(t * v) for a, v in zip(p1, y)]
                    m1 = mpmath.fsum(wi * v for wi, v in zip(w, y)) / mpmath.fsum(w)
                    m2 = mpmath.fsum(wi * v * v for wi, v in zip(w, y)) / mpmath.fsum(w)
                    step = m1 / (m2 - m1 * m1)
                    t -= step
                    if abs(step) < mpmath.mpf(10) ** -40:
                        break
                else:
                    pytest.fail(f"oracle Newton did not converge for {pair}")
                oracle_c = -mpmath.log(mpmath.fsum(
                    a * mpmath.exp(t * v) for a, v in zip(p1, y)))
                assert abs(t_star - float(t)) <= 1e-10
                assert c == pytest.approx(float(oracle_c), rel=1e-10, abs=0.0)


class TestRateFunctionEdges:
    @pytest.mark.parametrize("size", EDGE_SIZES)
    def test_matches_mpmath_oracle_near_range_ends(self, size):
        mpmath = pytest.importorskip("mpmath")
        returned = 0
        for pair, r in edge_cases(size):
            want, t_star = mp_rate(mpmath, pair, r)
            if abs(t_star) > _T_CAP:
                with pytest.raises(OutOfDomain):
                    rate_function(pair, r)
                continue
            if abs(t_star) > _T_CAP - 1.0:
                # the bracket grows to -63 on the left and 64 on the right
                continue
            res = rate_function(pair, r)
            returned += 1
            assert res.value == pytest.approx(want, rel=1e-10, abs=0.0), (pair, r)
            assert res.t_star == pytest.approx(t_star, rel=0.0, abs=1e-8), (pair, r)
        assert returned >= 20


def dirichlet_pair(rng, size):
    labels = [str(i) for i in range(size)]
    return HypothesisPair(
        make_pmf(labels, list(rng.dirichlet(np.ones(size)))),
        make_pmf(labels, list(rng.dirichlet(np.ones(size)))))


def skewed_pair(rng, size):
    """Entries spread over about five decades in each PMF."""
    labels = [str(i) for i in range(size)]
    return HypothesisPair(*(
        make_pmf(labels, list(w / w.sum()))
        for w in np.exp(-rng.uniform(0.0, 12.0, size=(2, size)))))


class TestSwapInvariance:
    """Swapping P1 and P2 swaps the table exactly, and the exponents up to
    the solver's tolerance. Each solve returns t within _T_TOL of its own
    root, and the roots agree up to the rounding of the ratios, far below
    that on these pairs: so t*' = 1 - t* holds within 2 _T_TOL. As
    |r - H'(t)| <= span = hi - lo for any t, a value taken at such a t moves
    by at most 2 span _T_TOL, which bounds |I'(r) - I(-r) - r| and |C' - C|.
    """

    @pytest.mark.parametrize("size", [2, 3, 64, 1024])
    @pytest.mark.parametrize("make", [dirichlet_pair, skewed_pair])
    def test_swap(self, make, size):
        rng = np.random.default_rng(size)
        for _ in range(3):
            pair = make(rng, size)
            swapped = HypothesisPair(pair.p2, pair.p1)
            assert swapped.llr12 == pair.llr21 and swapped.llr21 == pair.llr12
            assert swapped.llr21_range == (min(pair.llr12), max(pair.llr12))
            assert (swapped.d12, swapped.d21) == (pair.d21, pair.d12)
            # equal but for hypothesis_index
            assert swapped.stats1[1:] == pair.stats2[1:]
            assert swapped.stats2[1:] == pair.stats1[1:]

            lo, hi = pair.llr21_range
            tol = 2.0 * (hi - lo) * _T_TOL
            c, t_star = chernoff_information(pair)
            c_sw, t_sw = chernoff_information(swapped)
            assert abs(c_sw - c) <= tol
            assert abs(t_sw - (1.0 - t_star)) <= 2.0 * _T_TOL
            for f in (0.1, 0.5, 0.9):
                r = -pair.d12 + f * (pair.d12 + pair.d21)
                res, res_sw = rate_function(pair, r), rate_function(swapped, -r)
                assert abs(res_sw.value - (res.value - r)) <= tol
                assert abs(res_sw.t_star - (1.0 - res.t_star)) <= 2.0 * _T_TOL


class TestTiltBudget:
    @pytest.fixture
    def tilts(self, monkeypatch):
        import devex.exponents as ex

        count = [0]
        inner = ex.tilted_moments

        def counted(*args):
            count[0] += 1
            return inner(*args)

        monkeypatch.setattr(ex, "tilted_moments", counted)
        return count

    def test_chernoff_at_k64(self, tilts):
        # bisection to the same tolerance took 43 tilts per call
        rng = np.random.default_rng(64)
        for _ in range(8):
            pair = random_pair(rng, 64)
            tilts[0] = 0
            chernoff_information(pair)
            assert 1 <= tilts[0] <= 12

    def test_edge_cases_within_bisection_count(self, tilts):
        # the ITP cap allows bisection's 43 tilts to _T_TOL on [0, 1] plus 2;
        # that worst case lives on the near-identical stop cases at r = 0
        cases = [case for size in EDGE_SIZES for case in edge_cases(size)]
        for pair, r in cases + list(TestCertifiedStop.stop_cases()):
            tilts[0] = 0
            try:
                rate_function(pair, r)
            except OutOfDomain:
                continue
            assert tilts[0] <= 45, (pair, r)

    def test_stop_cases_have_no_long_tail(self, tilts):
        # measured max 18 with the ITP cap starting at 16 times the bracket;
        # 43 when a step below _T_TOL forced the next tilt to the midpoint.
        # The bound 30 leaves room for platform rounding, not for that tail
        worst = 0
        for pair, r in TestCertifiedStop.stop_cases():
            tilts[0] = 0
            try:
                rate_function(pair, r)
            except OutOfDomain:
                continue
            worst = max(worst, tilts[0])
        assert worst <= 30

    def test_mean_tilts_on_dirichlet_pairs(self, tilts):
        # measured 2.21 here with the quintic warm start and the stop on the
        # Newton point; 3.46 with a cubic start and a stop on the tilt
        # itself, 4.8 with the chord start and the bracket exit alone, so
        # the bound 2.5 leaves room for platform rounding only
        rng = np.random.default_rng(0)
        counts = []
        for size in (64, 256, 1024):
            for _ in range(6):
                pair = dirichlet_pair(rng, size)
                rs = [0.0, -0.5 * pair.d12, 0.5 * pair.d21]
                rs += [float(r) for r in rng.uniform(-pair.d12, pair.d21, 3)]
                for r in rs:
                    tilts[0] = 0
                    rate_function(pair, r)
                    counts.append(tilts[0])
        assert sum(counts) / len(counts) <= 2.5


class TestCertifiedStop:
    @staticmethod
    def stop_cases():
        """Seeded (pair, r): near-identical pairs down to h = 1e-7, skewed,
        far and large-alphabet pairs, r at 1e-6 and 1e-3 of each end of the
        range and at 0 when the range straddles it."""
        rng = np.random.default_rng(12)
        pairs = []
        for size in (2, 3, 8, 64):
            labels = [str(i) for i in range(size)]

            def pair_of(a, b):
                return HypothesisPair(make_pmf(labels, list(a / a.sum())),
                                      make_pmf(labels, list(b / b.sum())))

            for _ in range(2):
                a = rng.dirichlet(np.ones(size))
                z = rng.standard_normal(size)
                pairs += [pair_of(a, a * np.exp(h * z))
                          for h in (1e-2, 1e-3, 1e-4, 1e-5, 1e-7)]
                a = np.maximum(rng.dirichlet(np.full(size, 0.3)), 1e-12)
                b = np.maximum(rng.dirichlet(np.full(size, 0.3)), 1e-12)
                pairs.append(pair_of(a, b))
                pairs.append(pair_of(a, a * np.exp(4.0 * rng.standard_normal(size))))
        pairs += [dirichlet_pair(rng, size) for size in (256, 1024)]
        for pair in pairs:
            lo, hi = pair.llr21_range
            for f in (1e-6, 1e-3, 1.0 - 1e-3, 1.0 - 1e-6):
                yield pair, lo + f * (hi - lo)
            if lo < 0.0 < hi:
                yield pair, 0.0

    def test_stop_lands_within_tolerance_of_mpmath_root(self, monkeypatch):
        mpmath = pytest.importorskip("mpmath")
        import devex.exponents as ex

        points = []
        inner = ex._newton_point

        def recorded(*args):
            point = inner(*args)
            if point is not None:
                points.append(point)
            return point

        monkeypatch.setattr(ex, "_newton_point", recorded)
        u = 2.0 ** -53
        bounded = stops = 0
        for pair, r in self.stop_cases():
            points.clear()
            try:
                res = rate_function(pair, r)
            except OutOfDomain:
                continue
            if not points:
                continue
            want, t_star = mp_rate(mpmath, pair, r)
            # every bound the certificate forms holds, stop or not
            for _, t_new, err in points:
                assert abs(t_new - t_star) <= err, (pair, r)
            bounded += len(points)
            if points[-1][2] > 0.5 * ex._T_TOL:
                continue
            stops += 1
            assert res == points[-1][:2]
            assert abs(res.t_star - t_star) <= ex._T_TOL, (pair, r)
            # the value is as accurate as the tilt's rounding model allows:
            # t y and eta = u (1 + 2 y) per symbol, y = max |ln(P2/P1)|
            lo, hi = pair.llr21_range
            scale = (1.0 + abs(t_star) * (1.0 + 2.0 * max(-lo, hi))
                     + abs(t_star * r) + abs(t_star * r - want))
            assert abs(res.value - want) <= 4 * u * scale, (pair, r)
        assert stops >= 15 and bounded >= 100


class TestExactExponents:
    def test_zero_threshold_collapses_to_chernoff(self, ex1_pair, zero_th):
        c, _ = chernoff_information(ex1_pair)
        ex = exact_exponents(ex1_pair, zero_th)
        for v in (ex.alpha1, ex.alpha2, ex.beta1, ex.beta2, ex.pe1, ex.pe2):
            assert v == pytest.approx(c, abs=1e-10)

    def test_single_threshold_collapse(self, ex1_pair):
        lam = 0.01
        ex = exact_exponents(ex1_pair, Thresholds(lam, lam))
        i_neg = rate_function(ex1_pair, -lam).value
        assert ex.alpha1 == pytest.approx(i_neg, abs=1e-10)
        assert ex.alpha2 == pytest.approx(i_neg, abs=1e-10)
        assert ex.pe1 == pytest.approx(min(i_neg, i_neg + lam), abs=1e-10)

    def test_erasure_window_against_grid_oracle(self, ex1_pair):
        th = Thresholds(0.02, -0.02)
        ex = exact_exponents(ex1_pair, th)
        ga1 = grid_rate(ex1_pair, -0.02)
        ga2 = grid_rate(ex1_pair, 0.02)
        assert ex.alpha1 == pytest.approx(ga1, abs=1e-8)
        assert ex.alpha2 == pytest.approx(ga2, abs=1e-8)
        assert ex.beta1 == pytest.approx(ga2 - 0.02, abs=1e-8)
        assert ex.beta2 == pytest.approx(ga1 + 0.02, abs=1e-8)
        assert ex.pe1 == pytest.approx(min(ga1, ga2 - 0.02), abs=1e-8)
        assert ex.pe2 == pytest.approx(min(ga2, ga1 + 0.02), abs=1e-8)
        for v in (ex.alpha1, ex.alpha2, ex.beta1, ex.beta2):
            assert v >= 0.0

    def test_inadmissible(self, ex1_pair):
        with pytest.raises(InadmissibleThresholds):
            exact_exponents(ex1_pair, Thresholds(0.9, 0.0))


class TestLowerBounds:
    def test_refined_component_closed_form(self, ex1_pair, zero_th):
        rb = refined_lower_bounds(ex1_pair, zero_th)
        want = binary_kl(0.5, 0.4)
        for key in ((1, 1), (2, 1), (1, 2), (2, 2)):
            assert rb.components[key] == pytest.approx(want, abs=1e-12)
        assert rb.pe1 == pytest.approx(want, abs=1e-12)
        assert rb.pe2 == pytest.approx(want, abs=1e-12)

    def test_azuma_closed_form(self, ex1_pair, zero_th):
        ab = azuma_lower_bounds(ex1_pair, zero_th)
        assert ab.pe1 == pytest.approx(1 / 72, abs=1e-12)
        assert ab.pe2 == pytest.approx(1 / 72, abs=1e-12)

    def test_narrow_pair_refined_equals_chernoff(self, ex2_pair, zero_th):
        # binary zero-threshold identity: the refined divergence evaluates
        # the optimally tilted distribution, so the bound is tight
        rb = refined_lower_bounds(ex2_pair, zero_th)
        c, _ = chernoff_information(ex2_pair)
        assert rb.pe1 == pytest.approx(c, abs=1e-12)
        assert rb.pe1 == pytest.approx(2.0004001066974662e-4, abs=1e-15)

    def test_narrow_pair_azuma_value(self, ex2_pair, zero_th):
        ab = azuma_lower_bounds(ex2_pair, zero_th)
        assert ab.pe1 == pytest.approx(1.9223375624758632e-4, abs=1e-15)

    def test_cross_weighted_variance_reproduces_published_value(self, ex2_pair):
        # weighting both conditional variances by P1 (instead of
        # per-hypothesis) gives the smaller reference value 1.997e-4
        llr2 = [math.log(b / a)
                for a, b in zip(ex2_pair.p1.probs, ex2_pair.p2.probs)]
        d21 = kl_divergence(ex2_pair.p2, ex2_pair.p1)
        from devex import llr_stats
        s1, s2 = llr_stats(ex2_pair, 1), llr_stats(ex2_pair, 2)
        sigma2_alt = math.fsum(
            w * (y - d21) ** 2 for w, y in zip(ex2_pair.p1.probs, llr2))
        gamma2_alt = sigma2_alt / s2.d ** 2
        d12 = kl_divergence(ex2_pair.p1, ex2_pair.p2)
        comp1 = binary_kl((d12 / s1.d + s1.gamma) / (1 + s1.gamma),
                          s1.gamma / (1 + s1.gamma))
        comp2 = binary_kl((d21 / s2.d + gamma2_alt) / (1 + gamma2_alt),
                          gamma2_alt / (1 + gamma2_alt))
        el_alt = min(comp1, comp2)
        assert el_alt == pytest.approx(1.997e-4, abs=5e-7)
        assert el_alt == pytest.approx(1.9972247946621093e-4, abs=1e-15)

    def test_azuma_below_refined_componentwise(self, zero_th):
        rng = np.random.default_rng(8)
        for _ in range(20):
            pair = random_pair(rng, int(rng.integers(2, 6)))
            rb = refined_lower_bounds(pair, zero_th)
            ab = azuma_lower_bounds(pair, zero_th)
            for key in rb.components:
                assert ab.components[key] <= rb.components[key] + 1e-12

    def test_identical_hypotheses(self, zero_th):
        p = make_pmf(["0", "1"], [0.5, 0.5])
        with pytest.raises(DegenerateIncrements):
            refined_lower_bounds(HypothesisPair(p, p), zero_th)


class TestCompareReport:
    def test_symmetric_binary_values(self, ex1_pair, zero_th):
        rep = compare_report(ex1_pair, zero_th)
        assert rep.exact.pe1 == pytest.approx(2.04e-2, abs=5e-5)
        assert rep.azuma.pe1 == pytest.approx(1.39e-2, abs=5e-5)
        assert rep.refined.pe1 == pytest.approx(binary_kl(0.5, 0.4), abs=1e-12)
        assert rep.gammas == pytest.approx((2 / 3, 2 / 3), abs=1e-12)
        assert rep.gamma_inv == pytest.approx((1.5, 1.5), abs=1e-12)
        for key, val in rep.improvement.items():
            assert val == pytest.approx(
                rep.refined.components[key] / rep.azuma.components[key],
                rel=1e-12)
            assert val >= 1.0

    def test_one_geometry_per_report(self, monkeypatch, ex1_pair, zero_th):
        import devex.exponents as ex
        import devex.probdist as pd

        calls = {"llr_stats": 0, "check_admissible": 0, "kl_divergence": 0,
                 "rate_function": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("llr_stats", "check_admissible", "rate_function"):
            monkeypatch.setattr(ex, name, counted(name, getattr(ex, name)))
        kl = counted("kl_divergence", pd.kl_divergence)
        monkeypatch.setattr(pd, "kl_divergence", kl)
        monkeypatch.setattr(ex, "kl_divergence", kl, raising=False)
        compare_report(ex1_pair, zero_th)
        # equal thresholds share one rate-function solve
        assert calls == {"llr_stats": 2, "check_admissible": 1, "kl_divergence": 0,
                         "rate_function": 1}

    @pytest.mark.parametrize("th,distinct", [(Thresholds(0.0, 0.0), 2),
                                             (Thresholds(0.05, -0.05), 4)])
    def test_one_component_per_hypothesis_and_threshold(
            self, monkeypatch, ex1_pair, th, distinct):
        import devex.exponents as ex

        calls = []

        def counted(delta, gamma):
            calls.append((delta, gamma))
            return refined_exponent(delta, gamma)

        monkeypatch.setattr(ex, "refined_exponent", counted)
        rep = compare_report(ex1_pair, th)
        assert len(calls) == distinct
        want = {key: refined_exponent(rep.deltas[key], rep.gammas[key[0] - 1])
                for key in rep.deltas}
        assert rep.refined.components == want

    def test_ordering_on_random_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            pair = random_pair(rng, int(rng.integers(2, 5)))
            d12 = kl_divergence(pair.p1, pair.p2)
            d21 = kl_divergence(pair.p2, pair.p1)
            hi = -d21 + 0.95 * (d12 + d21) * float(rng.uniform(0.1, 1.0))
            lo = -d21 + (hi + d21) * float(rng.uniform(0.05, 0.95))
            rep = compare_report(pair, Thresholds(hi, lo))
            assert rep.azuma.pe1 <= rep.refined.pe1 + 1e-12
            assert rep.refined.pe1 <= rep.exact.pe1 + 1e-12
            assert rep.azuma.pe2 <= rep.refined.pe2 + 1e-12
            assert rep.refined.pe2 <= rep.exact.pe2 + 1e-12

    def test_near_identical_pair_degrades_to_zero(self, zero_th):
        pair = HypothesisPair(make_pmf(["0", "1"], [0.5005, 0.4995]),
                              make_pmf(["0", "1"], [0.4995, 0.5005]))
        rep = compare_report(pair, zero_th)
        assert 0.0 <= rep.azuma.pe1 <= rep.refined.pe1 <= rep.exact.pe1 < 1e-5

    def test_erasure_monotonicity(self, ex1_pair):
        windows = [Thresholds(0.0, 0.0), Thresholds(0.01, -0.01),
                   Thresholds(0.02, -0.02), Thresholds(0.04, -0.04)]
        pe1 = [exact_exponents(ex1_pair, th).pe1 for th in windows]
        pe2 = [exact_exponents(ex1_pair, th).pe2 for th in windows]
        assert all(b <= a + 1e-12 for a, b in zip(pe1, pe1[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(pe2, pe2[1:]))

    def test_identical_hypotheses_flagged_as_degenerate(self, zero_th):
        p = make_pmf(["0", "1"], [0.5, 0.5])
        with pytest.raises(DegenerateIncrements):
            compare_report(HypothesisPair(p, p), zero_th)

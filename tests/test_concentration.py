import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devex import (
    ONE_SIDED,
    TWO_SIDED,
    DomainError,
    MartingaleParams,
    OutOfDomain,
    azuma_bound,
    binary_kl,
    quad_cubic_floor,
    refined_bound,
    sqrt_scaling_report,
    xlogx_exact,
    xlogx_floor,
)


class TestMartingaleParams:
    def test_derived_quantities(self):
        p = MartingaleParams(d=2.0, sigma_sq=1.0)
        assert p.gamma == 0.25
        assert p.delta(0.5) == 0.25

    @pytest.mark.parametrize("d,s", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                     (1.0, -0.5), (1.0, 1.0001)])
    def test_rejects_bad_parameters(self, d, s):
        with pytest.raises(DomainError):
            MartingaleParams(d=d, sigma_sq=s)

    def test_variance_at_jump_bound_allowed(self):
        assert MartingaleParams(d=1.0, sigma_sq=1.0).gamma == 1.0

    def test_negative_alpha_rejected(self):
        with pytest.raises(DomainError):
            MartingaleParams(d=1.0, sigma_sq=0.5).delta(-0.1)


class TestAzumaBound:
    def test_zero_deviation(self):
        assert azuma_bound([1.0] * 7, 0.0) == 2.0

    def test_uniform_jumps(self):
        assert azuma_bound([1.0] * 4, 2.0) == pytest.approx(
            2 * math.exp(-0.5), rel=1e-15)

    def test_mixed_jumps(self):
        assert azuma_bound([1.0, 2.0, 2.0], 3.0) == pytest.approx(
            2 * math.exp(-0.5), rel=1e-15)

    def test_permutation_invariance(self):
        jumps = [0.5, 1.5, 0.25, 2.0]
        assert azuma_bound(jumps, 1.0) == azuma_bound(jumps[::-1], 1.0)

    def test_impossible_deviation(self):
        assert azuma_bound([0.0, 0.0], 1.0) == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(DomainError):
            azuma_bound([1.0], -0.5)
        with pytest.raises(DomainError):
            azuma_bound([1.0, -1.0], 0.5)

    def test_may_exceed_one(self):
        assert azuma_bound([1.0] * 4, 2.0) > 1.0

    @pytest.mark.parametrize("jumps,r,scale", [
        ([1.0], 2.0, 1e154),            # r**2 overflows, the sum does not
        ([1.0, 2.0, 2.0], 3.0, 1e200),  # both overflow
    ])
    def test_scale_invariant_where_squares_overflow(self, jumps, r, scale):
        scaled = azuma_bound([scale * d for d in jumps], scale * r)
        assert scaled == pytest.approx(azuma_bound(jumps, r), rel=1e-14)

    def test_overflowing_exponent_gives_zero(self):
        # r**2 overflows and so does (r/d)**2: the bound is exp(-inf) = 0
        assert azuma_bound([1.0], 1e200) == 0.0

    def test_overflowing_deviation_against_finite_sum(self):
        # r**2 = 1e310 overflows, sum d**2 = 1e308 does not: exponent 50
        got = azuma_bound([1e153] * 100, 1e155)
        assert got == pytest.approx(2.0 * math.exp(-50.0), rel=1e-13)


class TestRefinedBound:
    def test_zero_alpha_gives_sidedness_constant(self):
        p = MartingaleParams(d=1.0, sigma_sq=1.0)
        assert refined_bound(p, 10, 0.0) == 1.0
        assert refined_bound(p, 10, 0.0, TWO_SIDED) == 2.0

    def test_impossible_deviation_is_exactly_zero(self):
        p = MartingaleParams(d=1.0, sigma_sq=1.0)
        assert refined_bound(p, 10, 2.0) == 0.0
        assert refined_bound(p, 10, 2.0, TWO_SIDED) == 0.0

    def test_boundary_delta_finite(self):
        p = MartingaleParams(d=1.0, sigma_sq=0.5)
        got = refined_bound(p, 3, 1.0)
        want = math.exp(-3 * binary_kl(1.0, 0.5 / 1.5))
        assert got == pytest.approx(want, rel=1e-14)
        assert 0.0 < got < 1.0

    def test_symmetric_binary_exponent(self):
        # d and sigma^2 of the LLR martingale for the 0.4/0.6 pair: the
        # one-step exponent collapses to binary_kl(1/2, 2/5)
        d = 6 * 0.2 * math.log(1.5)
        p = MartingaleParams(d=d, sigma_sq=d * d * (2 / 3))
        got = refined_bound(p, 1, d / 6)
        assert -math.log(got) == pytest.approx(binary_kl(0.5, 0.4), abs=1e-13)

    def test_monotone_in_alpha_and_n(self):
        p = MartingaleParams(d=1.0, sigma_sq=0.3)
        alphas = np.linspace(0.0, 1.2, 25)
        vals = [refined_bound(p, 5, float(a)) for a in alphas]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
        ns = [1, 2, 5, 10, 50]
        vals_n = [refined_bound(p, n, 0.2) for n in ns]
        assert all(b < a for a, b in zip(vals_n, vals_n[1:]))

    def test_bad_inputs(self):
        p = MartingaleParams(d=1.0, sigma_sq=0.5)
        with pytest.raises(DomainError):
            refined_bound(p, 0, 0.1)
        with pytest.raises(DomainError):
            refined_bound(p, 3, -0.1)
        with pytest.raises(DomainError):
            refined_bound(p, 3, 0.1, "sideways")


class TestSqrtScaling:
    def test_zero_alpha(self):
        p = MartingaleParams(d=1.0, sigma_sq=0.5)
        rows = sqrt_scaling_report(p, 0.0, [10, 100])
        for row in rows:
            assert row.bound == 2.0
            assert row.asymptote == 2.0
            assert row.ratio == 1.0

    def test_ratios_approach_one_gamma_quarter(self):
        p = MartingaleParams(d=1.0, sigma_sq=0.25)
        rows = sqrt_scaling_report(p, 0.5, [100, 10_000, 1_000_000])
        gaps = [abs(r.ratio - 1.0) for r in rows]
        assert gaps[0] > gaps[1] > gaps[2]
        assert all(r.ratio > 1.0 for r in rows)
        assert rows[0].asymptote == pytest.approx(2 * math.exp(-0.5), rel=1e-14)

    def test_ratios_approach_one_gamma_one(self):
        p = MartingaleParams(d=1.0, sigma_sq=1.0)
        rows = sqrt_scaling_report(p, 1.0, [100, 10_000, 1_000_000])
        gaps = [abs(r.ratio - 1.0) for r in rows]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_underflowing_asymptote_raises(self):
        p = MartingaleParams(d=1.0, sigma_sq=1e-4)
        # delta**2/(2 gamma) = 1250: the asymptote is 0.0
        with pytest.raises(OutOfDomain, match="1250"):
            sqrt_scaling_report(p, 0.5, [10, 100])
        # 720: the asymptote is subnormal
        with pytest.raises(OutOfDomain):
            sqrt_scaling_report(p, math.sqrt(0.144), [10, 100])
        # 700: still a normal float
        rows = sqrt_scaling_report(p, math.sqrt(0.14), [10, 100])
        assert rows[0].asymptote == pytest.approx(2 * math.exp(-700), rel=1e-12)

    def test_grid_validation(self):
        p = MartingaleParams(d=1.0, sigma_sq=0.5)
        with pytest.raises(DomainError):
            sqrt_scaling_report(p, 0.5, [])
        with pytest.raises(DomainError):
            sqrt_scaling_report(p, 0.5, [100, 10])
        with pytest.raises(DomainError):
            sqrt_scaling_report(p, 0.5, [0, 10])


class TestXlogx:
    def test_origin(self):
        assert xlogx_floor(0.0) == 0.0
        assert xlogx_exact(0.0) == 0.0

    def test_left_endpoint(self):
        assert xlogx_floor(-1.0) == -0.5
        assert xlogx_exact(-1.0) == 0.0

    def test_unit_point(self):
        assert xlogx_floor(1.0) == pytest.approx(4 / 3, rel=1e-15)
        assert xlogx_exact(1.0) == pytest.approx(2 * math.log(2), rel=1e-15)
        assert xlogx_exact(1.0) >= xlogx_floor(1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            xlogx_floor(-1.0001)
        with pytest.raises(DomainError):
            xlogx_exact(-1.0001)

    @given(st.floats(-1.0, 10.0))
    @settings(max_examples=300, deadline=None)
    def test_floor_never_exceeds_exact(self, u):
        exact, floor = xlogx_exact(u), xlogx_floor(u)
        # near u = 0 the true margin (~u^3/3) drops below 1-ulp rounding
        # noise of either evaluation, so allow exactly that much
        slack = 4 * math.ulp(max(abs(exact), abs(floor), 1.0e-300))
        assert exact >= floor - slack


class TestQuadCubicFloor:
    def test_zero_delta(self):
        assert quad_cubic_floor(0.0, 0.5) == 0.0

    def test_reference_point(self):
        want = 1 / 48 - 1 / 960
        got = quad_cubic_floor(1 / 6, 2 / 3)
        assert got == pytest.approx(want, rel=1e-14)
        assert binary_kl(0.5, 0.4) >= got

    def test_negative_values_allowed(self):
        got = quad_cubic_floor(0.9, 0.1)
        assert got < 0.0
        assert binary_kl((0.9 + 0.1) / 1.1, 0.1 / 1.1) >= got

    @pytest.mark.parametrize("delta,gamma", [(1e-170, 1e-200), (1e-150, 1e-300)])
    def test_gamma_squared_underflows(self, delta, gamma):
        # gamma**2 is 0; delta**2/(2 gamma) (1 - delta/(3 gamma (1+gamma)))
        want = delta * delta / (2.0 * gamma) * (1.0 - delta / (3.0 * gamma))
        assert quad_cubic_floor(delta, gamma) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("gamma", [1e-200, 5e-324])
    def test_overflow_gives_minus_inf(self, gamma):
        # the cubic term delta**3/(6 gamma**2) exceeds every float
        assert quad_cubic_floor(1.0, gamma) == -math.inf

    @pytest.mark.parametrize("d,g", [(-0.1, 0.5), (1.1, 0.5), (0.5, 0.0),
                                     (0.5, -0.1), (0.5, 1.1)])
    def test_domain(self, d, g):
        with pytest.raises(DomainError):
            quad_cubic_floor(d, g)


class TestDominanceGrid:
    def test_pinsker_and_quad_cubic_dominance(self):
        for gi in range(1, 21):
            gamma = gi / 20
            for di in range(0, 21):
                delta = di / 20
                kl = binary_kl((delta + gamma) / (1 + gamma), gamma / (1 + gamma))
                assert kl >= delta * delta / 2
                assert kl >= quad_cubic_floor(delta, gamma)

    def test_refined_below_azuma_pointwise(self):
        p = MartingaleParams(d=1.0, sigma_sq=0.25)
        for n in (1, 10, 100):
            for alpha in (0.05, 0.1, 0.5, 0.9):
                one_sided_azuma = math.exp(-n * alpha * alpha / 2)
                assert refined_bound(p, n, alpha) <= one_sided_azuma + 1e-15

import math

import pytest

from devex import (
    DegenerateIncrements,
    DomainError,
    HypothesisPair,
    OutOfDomain,
    bernoulli_family,
    fisher_information,
    kl_divergence,
    limit_ratios,
    llr_stats,
    ternary_family,
)
from devex.fisher import _neville_at_zero

OFFSETS = (0.01, 0.005, 0.0025)


def ternary_j(alpha, theta):
    return (1 - alpha) / (theta * (1 + theta) ** 2)


class TestFamilies:
    def test_bernoulli_pmf(self):
        fam = bernoulli_family()
        assert fam.pmf_at(0.5).probs == (0.5, 0.5)
        assert fam.pmf_at(0.51).probs == pytest.approx((0.49, 0.51), abs=1e-15)

    def test_bernoulli_boundary(self):
        fam = bernoulli_family()
        for theta in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(OutOfDomain):
                fam.pmf_at(theta)
            with pytest.raises(OutOfDomain):
                fam.score_at(theta)
            assert not fam.contains(theta)

    def test_bernoulli_score(self):
        fam = bernoulli_family()
        assert fam.score_at(0.25) == pytest.approx((-4 / 3, 4.0), rel=1e-15)

    def test_ternary_pmf(self):
        fam = ternary_family(0.5)
        assert fam.pmf_at(1.0).probs == pytest.approx((0.25, 0.5, 0.25),
                                                      abs=1e-15)
        for theta in (0.1, 0.7, 1.0, 3.0, 25.0):
            assert math.fsum(fam.pmf_at(theta).probs) == pytest.approx(
                1.0, abs=1e-12)

    def test_ternary_bad_alpha(self):
        for alpha in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(DomainError):
                ternary_family(alpha)

    def test_ternary_bad_theta(self):
        fam = ternary_family(0.5)
        for theta in (0.0, -1.0):
            with pytest.raises(OutOfDomain):
                fam.pmf_at(theta)
            with pytest.raises(OutOfDomain):
                fam.score_at(theta)

    @pytest.mark.parametrize("fam", [ternary_family(0.3), bernoulli_family()],
                             ids=lambda fam: fam.name)
    def test_score_matches_finite_difference(self, fam):
        theta, h = 0.8, 1e-6
        hi, lo = fam.pmf_at(theta + h), fam.pmf_at(theta - h)
        fd = [(math.log(a) - math.log(b)) / (2 * h)
              for a, b in zip(hi.probs, lo.probs)]
        assert fam.score_at(theta) == pytest.approx(fd, abs=1e-6)


class TestFisherInformation:
    def test_bernoulli_half(self):
        assert fisher_information(bernoulli_family(), 0.5) == \
            pytest.approx(4.0, abs=1e-9)

    def test_bernoulli_quarter(self):
        # J = 1 / (theta (1 - theta))
        assert fisher_information(bernoulli_family(), 0.25) == \
            pytest.approx(16 / 3, rel=1e-12)

    def test_ternary_closed_form(self):
        for alpha, theta in ((0.3, 0.5), (0.9, 1.0), (0.9, 2.0)):
            assert fisher_information(ternary_family(alpha), theta) == \
                pytest.approx(ternary_j(alpha, theta), rel=1e-12)

    def test_probe_must_stay_inside(self):
        for fam, theta in ((bernoulli_family(), 0.0), (bernoulli_family(), 1.0),
                           (bernoulli_family(), 1.5), (ternary_family(0.3), 0.0),
                           (ternary_family(0.3), -2.0)):
            with pytest.raises(OutOfDomain):
                fisher_information(fam, theta)


class TestGammaLimit:
    """The loosened-bound factor is the small-separation limit of gamma."""

    def gamma_at(self, fam, theta, h):
        pair = HypothesisPair(fam.pmf_at(theta), fam.pmf_at(theta + h))
        return llr_stats(pair, 1).gamma

    def test_bernoulli_symmetric_is_one(self):
        fam = bernoulli_family()
        assert self.gamma_at(fam, 0.5, 1e-4) == pytest.approx(1.0, abs=1e-3)

    def test_ternary_limit_formula(self):
        # gamma -> (1 - alpha) min(theta, 1/theta); note the 1/theta branch
        # for theta > 1, where the small-probability symbol drives d
        for alpha, theta in ((0.3, 0.5), (0.9, 0.5), (0.9, 1.0), (0.9, 2.0)):
            want = (1 - alpha) * min(theta, 1 / theta)
            got = self.gamma_at(ternary_family(alpha), theta, 1e-4)
            assert got == pytest.approx(want, rel=1e-3)

    def test_ternary_theta_two_value(self):
        got = self.gamma_at(ternary_family(0.9), 2.0, 1e-5)
        assert got == pytest.approx(0.05, rel=1e-4)


class TestLimitRatios:
    def test_bernoulli_half_limits(self):
        rep = limit_ratios(bernoulli_family(), 0.5, OFFSETS)
        assert rep.j == pytest.approx(4.0, abs=1e-9)
        assert rep.divergence_limit == pytest.approx(2.0, rel=0.01)
        assert rep.chernoff_limit == pytest.approx(0.5, rel=0.01)
        assert rep.el_limit == pytest.approx(0.5, rel=0.01)
        assert rep.loosened_limit == pytest.approx(0.5, rel=0.01)
        assert 0.0 <= rep.a_theta <= 1.0 + 1e-6

    def test_bernoulli_grid_limits(self):
        for theta in (0.3, 0.7):
            rep = limit_ratios(bernoulli_family(), theta, OFFSETS)
            j = 1 / (theta * (1 - theta))
            assert rep.divergence_limit == pytest.approx(j / 2, rel=0.01)
            assert rep.chernoff_limit == pytest.approx(j / 8, rel=0.01)
            assert rep.el_limit == pytest.approx(j / 8, rel=0.01)

    def test_ternary_loosened_factor(self):
        rep = limit_ratios(ternary_family(0.9), 1.0, OFFSETS)
        assert rep.a_theta == pytest.approx(0.1, rel=0.02)
        assert rep.loosened_limit == pytest.approx(
            0.1 * ternary_j(0.9, 1.0) / 8, rel=0.02)

    @pytest.mark.parametrize("family,theta", [
        *((bernoulli_family(), theta) for theta in (0.2, 0.3, 0.5, 0.8)),
        *((ternary_family(alpha), theta) for alpha in (0.4, 0.9)
          for theta in (0.5, 1.0, 2.0, 3.0)),
    ])
    def test_a_theta_closed_form(self, family, theta):
        # Azuma's limit J^2 h^2 / (8 max_x s(x)^2) over J h^2 / 8 gives
        # a(theta) = J / max_x s(x)^2: (1 - alpha) min(theta, 1/theta) for
        # the ternary family, so theta > 1 takes the other branch
        probs, score = family.pmf_at(theta).probs, family.score_at(theta)
        j = math.fsum(p * s * s for p, s in zip(probs, score))
        rep = limit_ratios(family, theta, (1e-3, 2e-3, 4e-3))
        assert rep.a_theta == pytest.approx(j / max(s * s for s in score),
                                            rel=1e-5)

    def test_rows_carry_raw_ratios(self):
        rep = limit_ratios(bernoulli_family(), 0.5, OFFSETS)
        assert tuple(r.h for r in rep.rows) == OFFSETS
        pair = HypothesisPair(bernoulli_family().pmf_at(0.5),
                              bernoulli_family().pmf_at(0.51))
        want = kl_divergence(pair.p1, pair.p2) / 0.01 ** 2
        assert rep.rows[0].divergence_ratio == pytest.approx(want, rel=1e-12)

    def test_one_geometry_per_offset(self, monkeypatch):
        import devex.exponents as ex

        calls = {"llr_stats": 0, "check_admissible": 0, "rate_function": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(ex, name, counted(name, getattr(ex, name)))
        limit_ratios(ternary_family(0.5), 1.0, OFFSETS)
        assert calls == {"llr_stats": 2 * len(OFFSETS),
                         "check_admissible": len(OFFSETS),
                         "rate_function": len(OFFSETS)}

    def test_flip_symmetry(self):
        # approaching from below gives the same divergence limit
        fam = bernoulli_family()
        theta = 0.4
        fwd = [kl_divergence(fam.pmf_at(theta), fam.pmf_at(theta + h)) / h / h
               for h in OFFSETS]
        bwd = [kl_divergence(fam.pmf_at(theta), fam.pmf_at(theta - h)) / h / h
               for h in OFFSETS]
        lf = _neville_at_zero(list(OFFSETS), fwd)
        lb = _neville_at_zero(list(OFFSETS), bwd)
        j = 1 / (theta * (1 - theta))
        assert lf == pytest.approx(j / 2, rel=1e-4)
        assert lb == pytest.approx(j / 2, rel=1e-4)

    def test_offset_validation(self):
        fam = bernoulli_family()
        with pytest.raises(DomainError):
            limit_ratios(fam, 0.5, ())
        with pytest.raises(DomainError):
            limit_ratios(fam, 0.5, (0.01, 0.01))
        with pytest.raises(DomainError):
            limit_ratios(fam, 0.5, (0.01, -0.005))
        with pytest.raises(DegenerateIncrements):
            limit_ratios(fam, 0.5, (0.01, 1e-8))

    def test_theta_probe_domain(self):
        with pytest.raises(OutOfDomain):
            limit_ratios(bernoulli_family(), 0.995, OFFSETS)
        with pytest.raises(OutOfDomain):
            limit_ratios(ternary_family(0.5), 0.005, OFFSETS)


class TestNeville:
    def test_recovers_constant_plus_polynomial(self):
        hs = [0.04, 0.02, 0.01]
        vals = [2.5 + 3 * h + 2 * h * h for h in hs]
        assert _neville_at_zero(hs, vals) == pytest.approx(2.5, abs=1e-12)

    def test_single_point_passthrough(self):
        assert _neville_at_zero([0.01], [7.25]) == 7.25

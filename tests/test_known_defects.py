"""Known defects, each a strict xfail: the input, its truth from the 50-digit
oracle on the exactly normalised pair, and the ROADMAP item whose fix turns
the case into a plain test. A case that starts to pass fails the suite as
XPASS, so a fix, deliberate or not, cannot go unseen."""

import pytest

import devex.exponents as ex
from devex import (
    ZERO_THRESHOLDS,
    HypothesisPair,
    InadmissibleThresholds,
    Thresholds,
    compare_report,
    exact_exponents,
    make_pmf,
    rate_function,
)


def pair_of(p1, p2):
    labels = [str(i) for i in range(len(p1))]
    return HypothesisPair(make_pmf(labels, p1), make_pmf(labels, p2))


# 1e-7 apart: the true D12 and D21 are both about 3.5e-14
NEAR = pair_of([0.2, 0.3, 0.5], [0.2000001, 0.3, 0.4999999])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: t r - H cancels at the window edge")
def test_window_edge_exponent(oracle):
    # lambda_upper sits 1e-7 relative inside D12: the program gives alpha1
    # 7.05e-17 against 2.83e-18
    pair = pair_of([0.6568724568341875, 0.34312754316581245],
                   [0.6341821429757526, 0.36581785702424746])
    th = Thresholds(0.0011198760192753742, 0.0)
    want = oracle.rate(*oracle.exact_pair(pair), -th.lambda_upper)[0]
    assert exact_exponents(pair, th).alpha1 == pytest.approx(want, rel=1e-6, abs=0.0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: the pmfs' sum residues swamp D")
def test_near_identical_divergence(oracle):
    # H'(1) = D(P2||P1): the program gives 3.4967e-14 against 3.5000e-14
    want = oracle.tilt(*oracle.exact_pair(NEAR), 1.0)[1]
    assert NEAR.d21 == pytest.approx(want, rel=1e-6, abs=0.0)


@pytest.mark.xfail(strict=True, raises=InadmissibleThresholds,
                   reason="ROADMAP item 4: an absolute admissibility guard")
def test_near_identical_pair_admits_zero_thresholds(oracle):
    # the true window (-D21, D12) holds 0, but the guard of 1e-12 exceeds it
    p1, p2 = oracle.exact_pair(NEAR)
    assert -oracle.tilt(p1, p2, 1.0)[1] < 0.0 < -oracle.tilt(p1, p2, 0.0)[1]
    compare_report(NEAR, ZERO_THRESHOLDS)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: the bound omits the sum residues")
def test_certified_stop_bounds_the_normalised_root(oracle, monkeypatch):
    # TestCertifiedStop's case at r = 0: |t_N - t*| = 1.52e-3 against
    # err = 1.44e-3; on the stored pair t_N is 9.3e-5 from its root
    pair = pair_of([0.72581455954787, 0.27418544045213006],
                   [0.7258144351671774, 0.2741855648328226])
    points = []
    inner = ex._newton_point

    def recorded(*args):
        point = inner(*args)
        if point is not None:
            points.append(point)
        return point

    monkeypatch.setattr(ex, "_newton_point", recorded)
    rate_function(pair, 0.0)
    t_star = oracle.rate(*oracle.exact_pair(pair), 0.0)[1]
    if not points:
        pytest.fail("no certificate was formed, so the case tests nothing")
    for _, t_new, err in points:
        assert abs(t_new - t_star) <= err

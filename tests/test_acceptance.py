"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Each test prints its line (with the measured quantities) before asserting,
so the verdict is visible in captured output even on failure.
"""

import math
import sys
import time

import numpy as np

sys.path.insert(0, "tests")
from conftest import random_pair, write_pair_file

from devex import (
    MartingaleParams,
    SimConfig,
    Thresholds,
    azuma_lower_bounds,
    bernoulli_family,
    binary_kl,
    chernoff_information,
    compare_report,
    empirical_exponent,
    exact_binary_tail,
    fisher_information,
    kl_divergence,
    limit_ratios,
    llr_stats,
    martingale_trace,
    quad_cubic_floor,
    rate_function,
    refined_lower_bounds,
    simulate_test,
    sqrt_scaling_report,
    ternary_family,
    xlogx_exact,
    xlogx_floor,
)
from devex.cli import main as cli_main
from devex.probdist import tilted_moments

COMPONENT_KEYS = ((1, 1), (2, 1), (1, 2), (2, 2))


def verdict(num, ok, detail):
    line = f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} | {detail}"
    print(line)
    assert ok, line


def test_01_symmetric_binary_chernoff_value_and_speed(ex1_pair):
    value, _ = chernoff_information(ex1_pair)
    for _ in range(5):
        chernoff_information(ex1_pair)
    t0 = time.perf_counter()
    reps = 200
    for _ in range(reps):
        chernoff_information(ex1_pair)
    per_call = (time.perf_counter() - t0) / reps
    ok = abs(value - 2.04e-2) <= 5e-5 and per_call < 1e-3
    verdict(1, ok, f"C={value:.8f} (target 2.04e-2 +-5e-5), "
                   f"{per_call * 1e6:.0f} us/call (budget 1000)")


def test_02_symmetric_binary_azuma_bound(ex1_pair, zero_th):
    pe1 = azuma_lower_bounds(ex1_pair, zero_th).pe1
    ok = abs(pe1 - 1.0 / 72.0) <= 1e-12 and abs(pe1 - 1.39e-2) <= 5e-5
    verdict(2, ok, f"azuma pe1={pe1:.10f} vs closed form 1/72 "
                   f"and reference 1.39e-2")


def test_03_symmetric_binary_gammas_and_reported_arithmetic(ex1_pair):
    g1 = llr_stats(ex1_pair, 1).gamma
    g2 = llr_stats(ex1_pair, 2).gamma
    # label-swap symmetry forces the definitional gamma2 to equal gamma1;
    # the reference's 7/9 with delta = 1/6 is checked as arithmetic only
    repro = binary_kl((1 / 6 + 7 / 9) / (1 + 7 / 9), (7 / 9) / (1 + 7 / 9))
    ok = (abs(g1 - 2 / 3) <= 1e-12 and abs(g2 - 2 / 3) <= 1e-12
          and abs(repro - 1.77e-2) <= 5e-5)
    verdict(3, ok, f"gamma1={g1:.15f} gamma2={g2:.15f} (def. 2/3), "
                   f"substituted 7/9 arithmetic={repro:.8f} vs 1.77e-2")


def test_04_narrow_binary_suite(ex2_pair, zero_th):
    j = fisher_information(bernoulli_family(), 0.5)
    c, _ = chernoff_information(ex2_pair)
    el = refined_lower_bounds(ex2_pair, zero_th).pe1
    ok_j = abs(j - 4.0) <= 1e-9
    ok_c = abs(c - 2.000e-4) <= 5e-7
    ok_el = abs(el - 1.997e-4) <= 5e-7
    ok = ok_j and ok_c and ok_el
    verdict(4, ok, f"J={j:.12f} (4+-1e-9 {'ok' if ok_j else 'off'}), "
                   f"C={c:.6e} (2.000e-4+-5e-7 {'ok' if ok_c else 'off'}), "
                   f"E_L={el:.6e} (1.997e-4+-5e-7 {'ok' if ok_el else 'off'})")


def test_05_rate_function_matches_mpmath_oracle(oracle):
    rng = np.random.default_rng(555)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        pair = random_pair(rng, int(rng.integers(2, 7)))
        p1, p2 = oracle.exact_pair(pair)
        for _ in range(10):
            r = tilted_moments(pair, float(rng.uniform(-2.0, 3.0)))[1]
            worst = max(worst, abs(rate_function(pair, r).value - oracle.rate(p1, p2, r)[0]))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    verdict(5, ok, f"max |I - 50-digit I| = {worst:.3e} over 1000 evaluations "
                   f"(tol 1e-8), {elapsed:.1f}s (budget 30)")


def test_06_divergence_dominates_quadratic_floors():
    violations = 0
    for gamma in np.arange(0.05, 1.0 + 1e-9, 0.05):
        for delta in np.arange(0.0, 1.0 + 1e-9, 0.05):
            gamma = float(gamma)
            delta = float(delta)
            lhs = binary_kl((delta + gamma) / (1 + gamma), gamma / (1 + gamma))
            violations += not (lhs >= delta * delta / 2.0)
            violations += not (lhs >= quad_cubic_floor(delta, gamma))
    ok = violations == 0
    verdict(6, ok, f"{violations} violations on the 20x21 (gamma, delta) grid")


def test_07_entropy_integrand_dominates_cubic_floor():
    us = np.linspace(-1.0, 10.0, 10000)
    violations = sum(
        not (xlogx_exact(float(u)) >= xlogx_floor(float(u))) for u in us
    )
    ok = violations == 0
    verdict(7, ok, f"{violations} violations on 10000 points of [-1, 10]")


def test_08_bound_ordering_on_random_instances():
    # on binary alphabets the refined divergence evaluates the exactly
    # tilted two-point law, so refined == exact in real arithmetic; the
    # 1e-12 allowance admits only evaluation noise on those ties
    rng = np.random.default_rng(2024)
    tol = 1e-12
    violations = 0
    for _ in range(200):
        pair = random_pair(rng, int(rng.integers(2, 7)))
        d12 = kl_divergence(pair.p1, pair.p2)
        d21 = kl_divergence(pair.p2, pair.p1)
        span = d12 + d21
        hi = -d21 + span * float(rng.uniform(0.10, 0.95))
        lo = -d21 + (hi + d21) * float(rng.uniform(0.05, 0.95))
        rep = compare_report(pair, Thresholds(hi, lo))
        ordered = (rep.azuma.pe1 <= rep.refined.pe1 + tol
                   and rep.refined.pe1 <= rep.exact.pe1 + tol
                   and rep.azuma.pe2 <= rep.refined.pe2 + tol
                   and rep.refined.pe2 <= rep.exact.pe2 + tol)
        violations += not ordered
    ok = violations == 0
    verdict(8, ok, f"{violations} ordering violations over 200 instances")


def test_09_finite_n_tails_stay_under_bounds(ex1_pair, zero_th):
    rb = refined_lower_bounds(ex1_pair, zero_th).components
    ab = azuma_lower_bounds(ex1_pair, zero_th).components
    attrs = {"alpha1": (1, 1), "alpha2": (1, 2),
             "beta1": (2, 1), "beta2": (2, 2)}
    violations = 0
    for n in range(1, 201):
        tails = exact_binary_tail(ex1_pair, n, zero_th)
        for name, key in attrs.items():
            p = getattr(tails, name)
            violations += not (p <= math.exp(-n * rb[key]))
            violations += not (p <= math.exp(-n * ab[key]))
    ok = violations == 0
    verdict(9, ok, f"{violations} bound crossings over n in 1..200, "
                   f"both bound families")


def test_10_monte_carlo_confidence_intervals_cover_oracle(ex1_pair, zero_th):
    t0 = time.perf_counter()
    cfg = SimConfig(n=100, trials=10 ** 5, seed=42, thresholds=zero_th)
    res = simulate_test(ex1_pair, cfg)
    tails = exact_binary_tail(ex1_pair, 100, zero_th)
    exact = {
        "alpha1": tails.alpha1, "alpha2": tails.alpha2,
        "beta1": tails.beta1, "beta2": tails.beta2,
        "pe1": 0.5 * tails.alpha1 + 0.5 * tails.beta1,
        "pe2": 0.5 * tails.alpha2 + 0.5 * tails.beta2,
    }
    misses = [k for k, v in exact.items()
              if not getattr(res, k).ci_low <= v <= getattr(res, k).ci_high]
    elapsed = time.perf_counter() - t0
    ok = not misses and elapsed < 60.0
    verdict(10, ok, f"CI misses: {misses or 'none'} at n=100, 1e5 trials, "
                    f"seed 42; {elapsed:.1f}s (budget 60)")


def test_11_empirical_exponent_slope(ex1_pair, zero_th):
    pts = [(n, exact_binary_tail(ex1_pair, n, zero_th).alpha2)
           for n in range(50, 401, 50)]
    slope, _ = empirical_exponent(pts, prefactor_power=0.5)
    c, _ = chernoff_information(ex1_pair)
    rel = abs(slope - c) / c
    ok = rel <= 0.05
    verdict(11, ok, f"slope={slope:.7f} vs C={c:.7f}, off by {rel:.1%} "
                    f"(tol 5%); fit models the 1/sqrt(n) prefactor")


def test_11_addendum_slope_converges_with_longer_blocks(ex1_pair, zero_th):
    # not a numbered criterion: documents that the same fit lands near C
    # once n is large enough for the prefactor to fade
    pts = [(n, exact_binary_tail(ex1_pair, n, zero_th).alpha2)
           for n in range(500, 4001, 500)]
    slope, _ = empirical_exponent(pts)
    c, _ = chernoff_information(ex1_pair)
    rel = abs(slope - c) / c
    print(f"ACCEPTANCE 11 addendum: slope={slope:.7f} off by {rel:.2%} "
          f"over n in 500..4000")
    assert rel <= 0.02


def test_12_fisher_limit_suite():
    offsets = (0.01, 0.005, 0.0025)
    failures = []
    for theta in (0.3, 0.5, 0.7):
        rep = limit_ratios(bernoulli_family(), theta, offsets)
        j = 1.0 / (theta * (1.0 - theta))
        for name, got, want in (
            ("divergence", rep.divergence_limit, j / 2),
            ("chernoff", rep.chernoff_limit, j / 8),
            ("el", rep.el_limit, j / 8),
        ):
            if abs(got - want) / want > 0.01:
                failures.append(f"bernoulli {theta} {name}")
    for alpha in (0.3, 0.9):
        for theta in (0.5, 1.0):
            rep = limit_ratios(ternary_family(alpha), theta, offsets)
            want = (1.0 - alpha) * theta
            if abs(rep.a_theta - want) / want > 0.02:
                failures.append(f"ternary {alpha}/{theta}")
    ok = not failures
    verdict(12, ok, f"limit misses: {failures or 'none'}")


def test_13_trace_invariants_and_sqrt_scaling():
    rng = np.random.default_rng(31)
    violations = 0
    for _ in range(1000):
        pair = random_pair(rng, int(rng.integers(2, 7)))
        hyp = int(rng.integers(1, 3))
        n = int(rng.integers(1, 151))
        trace = martingale_trace(pair, hyp, n, seed=int(rng.integers(0, 2 ** 32)))
        if hyp == 1:
            start = n * kl_divergence(pair.p1, pair.p2)
        else:
            start = -n * kl_divergence(pair.p2, pair.p1)
        d = llr_stats(pair, hyp).d
        violations += trace.values[0] != start
        endpoint = trace.values[0] + math.fsum(trace.increments)
        violations += abs(trace.values[-1] - endpoint) > 1e-9
        violations += any(abs(inc) > d + 1e-12 for inc in trace.increments)
    rows = sqrt_scaling_report(MartingaleParams(d=1.0, sigma_sq=0.25), 0.5,
                               [10 ** 2, 10 ** 4, 10 ** 6])
    ratios = [row.ratio for row in rows]
    scaling_ok = (all(r >= 1.0 for r in ratios)
                  and ratios[0] > ratios[1] > ratios[2]
                  and ratios[2] < 1.001)
    ok = violations == 0 and scaling_ok
    verdict(13, ok, f"{violations} trace violations over 1000 traces; "
                    f"scaling ratios {[f'{r:.5f}' for r in ratios]}")


def test_14_simulate_output_is_thread_invariant(tmp_path, capsys):
    path = tmp_path / "pair.json"
    write_pair_file(path, ["0", "1"], [0.4, 0.6], [0.6, 0.4])
    argv = ["simulate", str(path), "--n", "50", "--trials", "20000",
            "--seed", "42"]
    assert cli_main(argv + ["--threads", "1"]) == 0
    one = capsys.readouterr().out
    assert cli_main(argv + ["--threads", "4"]) == 0
    four = capsys.readouterr().out
    ok = one == four and one != ""
    verdict(14, ok, f"{len(one)} bytes, byte-identical across "
                    f"1 and 4 threads: {one == four}")

"""Output checks, all run outside the timed region.

A `Checker` compares values against references and keeps the worst
relative error seen; each check function returns the list of reasons an
output is wrong (empty when it is right). Relative errors are taken against
max(|reference|, smallest normal double), so a result that underflows to 0
where the reference is below the double range counts as right.
"""

from __future__ import annotations

import json
import math
import sys

import mpmath as mp

import oracle
import worker

TOLERANCE = 1e-6
SIGMAS = 5.0
_TINY = sys.float_info.min


class Checker:
    def __init__(self):
        self.max_rel_err = 0.0
        self.compared = 0

    def rel(self, value, refs):
        """Smallest relative error of `value` against any reference in refs."""
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return math.inf
        x = mp.mpf(value)
        return min(float(abs(x - r) / max(abs(r), _TINY)) for r in refs)

    def close(self, what, value, ref, reasons):
        refs = ref if isinstance(ref, list) else [ref]
        err = self.rel(value, refs)
        self.compared += 1
        self.max_rel_err = max(self.max_rel_err, err)
        if not err <= TOLERANCE:
            reasons.append(f"{what}: {value!r} vs {mp.nstr(refs[0], 12)} (rel {err:.2e})")


def _raised(res, reasons):
    for key, val in res.items():
        if isinstance(val, dict) and "error" in val:
            reasons.append(f"{key} raised {val['error']}")


class SweepReference:
    """Oracle values for one sweep pair spec, computed once."""

    def __init__(self, spec):
        orc = spec["_oracle"]
        lu, ll = spec["th"]
        self.exact = orc.exact_exponents(lu, ll)
        self.d12, self.d21 = orc.d12, orc.d21
        self.chernoff = orc.chernoff()
        self.rate = [orc.rate(r) for r in spec["r"]]
        self.stats = orc.llr_stats()
        self.tails = [oracle.binary_tails(orc.a, orc.b, n, lu, ll)
                      for n in spec.get("ladder", ())]
        fam = spec.get("fisher")
        self.limit = None
        if fam:
            h = fam["h"]
            pairs = [oracle.family_pair(fam["name"], fam["alpha"], fam["theta"], m * h)
                     for m in (1, 2, 4)]
            self.limit = {
                "j": oracle.family_fisher(fam["name"], fam["alpha"], fam["theta"]),
                "rows": [(m * h, p.d12, p.chernoff()[0]) for m, p in zip((1, 2, 4), pairs)],
            }


def check_sweep_result(chk, spec, ref, res):
    reasons = []
    _raised(res, reasons)
    lu, ll = spec["th"]
    rep = res.get("report")
    if rep and "exact" in rep:
        for name, value in zip(("alpha1", "alpha2", "beta1", "beta2", "pe1", "pe2"), rep["exact"]):
            chk.close(f"exact.{name}", value, ref.exact[name], reasons)
        chk.close("D12", rep["eps"][0] + lu, ref.d12, reasons)
        chk.close("D21", rep["eps"][1] - ll, ref.d21, reasons)
    if isinstance(res.get("chernoff"), list):
        chk.close("C", res["chernoff"][0], ref.chernoff[0], reasons)
        chk.close("t*", res["chernoff"][1], ref.chernoff[1], reasons)
    if isinstance(res.get("rate"), list):
        for r, value, want in zip(spec["r"], res["rate"], ref.rate):
            chk.close(f"I({r:.3g})", value, want, reasons)
    if isinstance(res.get("stats"), list):
        d, sigma_sq = res["stats"]
        chk.close("d", d, ref.stats[0], reasons)
        chk.close("sigma_sq", sigma_sq, ref.stats[1], reasons)
        conc = res.get("concentration")
        if conc and "refined" in conc:
            _check_concentration(chk, spec, d, sigma_sq, conc, reasons)
    if isinstance(res.get("tails"), list):
        for n, got, want in zip(spec["ladder"], res["tails"], ref.tails):
            for name, value in zip(("alpha1", "alpha2", "beta1", "beta2"), got):
                chk.close(f"tail.{name}@{n}", value, want[name], reasons)
        if isinstance(res.get("fit"), list):
            points = worker.fit_points(spec["ladder"], [t[0] for t in res["tails"]])
            slope, intercept = oracle.least_squares_slope(points)
            chk.close("fit.slope", res["fit"][0], slope, reasons)
            scale = abs(intercept) + abs(slope) * max(spec["ladder"])
            if not abs(mp.mpf(res["fit"][1]) - intercept) <= TOLERANCE * scale:
                reasons.append(f"fit.intercept: {res['fit'][1]!r} vs {mp.nstr(intercept, 12)}")
    lim = res.get("limit")
    if lim and "j" in lim:
        chk.close("fisher.j", lim["j"], ref.limit["j"], reasons)
        for (h, div, cher), (h_ref, d_ref, c_ref) in zip(lim["rows"], ref.limit["rows"]):
            chk.close(f"divergence_ratio@{h:.3g}", div, d_ref / mp.mpf(h) ** 2, reasons)
            chk.close(f"chernoff_ratio@{h:.3g}", cher, c_ref / mp.mpf(h) ** 2, reasons)
    return reasons


def _check_concentration(chk, spec, d, sigma_sq, conc, reasons):
    alpha = spec["delta"] * d
    chk.close("refined_bound", conc["refined"],
              oracle.refined_bound(d, sigma_sq, spec["n"], alpha), reasons)
    gamma = sigma_sq / (d * d)
    chk.close("quad_cubic_floor", conc["floor"],
              oracle.quad_cubic_floor(alpha / d, gamma), reasons)
    delta = mp.mpf(alpha) / mp.mpf(d)
    asymptote_ref = 2 * mp.exp(-delta ** 2 / (2 * mp.mpf(sigma_sq) / mp.mpf(d) ** 2))
    for n, bound, asymptote in conc["sqrt"]:
        chk.close(f"sqrt_scaling.bound@{n}", bound,
                  oracle.refined_bound(d, sigma_sq, n, alpha / math.sqrt(n), sides=2), reasons)
        chk.close(f"sqrt_scaling.asymptote@{n}", asymptote, asymptote_ref, reasons)


# ---- CLI reports -------------------------------------------------------

def check_cli(chk, op, rc, stdout, stderr, validator, files):
    """Reasons a CLI invocation is wrong (empty when it is right)."""
    reasons = []
    if rc != op["expect_rc"]:
        return [f"exit code {rc}, expected {op['expect_rc']}: {stderr.strip()[-200:]}"]
    if rc != 0:
        want = f"error: {op['expect_error']}:"
        if not stderr.startswith(want):
            reasons.append(f"stderr {stderr[:80]!r} does not start with {want!r}")
        if stdout:
            reasons.append("error path wrote to stdout")
        return reasons
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    errors = sorted(validator.iter_errors(report), key=str)
    if errors:
        return [f"schema: {errors[0].message}"]
    check = op["check"]
    res = report["results"]
    kind = check["kind"]
    if kind == "exponents":
        orc = files[check["file"]]
        lu, ll = check["th"]
        want = orc.exact_exponents(lu, ll)
        for name in ("alpha1", "alpha2", "beta1", "beta2", "pe1", "pe2"):
            chk.close(f"exact_{name}", res[f"exact_{name}"], want[name], reasons)
        chk.close("D12", res["epsilon_i1j1"] + lu, orc.d12, reasons)
        chk.close("D21", res["epsilon_i2j1"] - ll, orc.d21, reasons)
    elif kind == "bounds":
        d, sigma_sq, n, alpha = check["d"], check["sigma_sq"], check["n"], check["alpha"]
        sides = 1 if check["sided"] == "one" else 2
        chk.close("refined", res["refined"],
                  oracle.refined_bound(d, sigma_sq, n, alpha, sides), reasons)
        r = mp.mpf(alpha * n)
        chk.close("azuma", res["azuma"], 2 * mp.exp(-r * r / (2 * n * mp.mpf(d) ** 2)), reasons)
        delta, gamma = mp.mpf(alpha) / d, mp.mpf(sigma_sq) / mp.mpf(d) ** 2
        chk.close("delta", res["delta"], delta, reasons)
        chk.close("gamma", res["gamma"], gamma, reasons)
        if res["quad_cubic_floor"] is not None:
            chk.close("quad_cubic_floor", res["quad_cubic_floor"],
                      oracle.quad_cubic_floor(alpha / d, sigma_sq / (d * d)), reasons)
    elif kind == "fisher":
        chk.close("j", res["j"], oracle.family_fisher(check["family"], check["alpha"],
                                                      check["theta"]), reasons)
        for i, h in enumerate(check["offsets"]):
            orc = oracle.family_pair(check["family"], check["alpha"], check["theta"], h)
            chk.close(f"divergence_ratio@{h:.3g}", res["divergence_ratio"][i],
                      orc.d12 / mp.mpf(h) ** 2, reasons)
            chk.close(f"chernoff_ratio@{h:.3g}", res["chernoff_ratio"][i],
                      orc.chernoff()[0] / mp.mpf(h) ** 2, reasons)
    elif kind == "simulate" and check["k"] == 2:
        _check_binary_simulate(chk, check, report, reasons)
    return reasons


def _check_binary_simulate(chk, check, report, reasons):
    inputs, res = report["inputs"], report["results"]
    n, trials = inputs["n"], inputs["trials"]
    lu, ll = check["th"]
    want = oracle.binary_tails(check["p1"], check["p2"], n, lu, ll)
    pi1 = inputs["pi1"]
    for name in ("alpha1", "alpha2", "beta1", "beta2"):
        chk.close(f"exact.{name}", res["exact"][name], want[name], reasons)
        lo, hi = min(want[name]), max(want[name])
        value = res[name]["value"]
        gap = max(lo - value, value - hi, 0.0)
        p = float(lo if value < lo else hi)
        se = math.sqrt(max(p * (1 - p), 0.0) / trials)
        if gap > SIGMAS * se:
            reasons.append(f"simulate {name} = {value} is {gap / se if se else math.inf:.1f} "
                           f"standard errors from the exact {p:.6g}")
    for name, (a, b) in (("pe1", ("alpha1", "beta1")), ("pe2", ("alpha2", "beta2"))):
        ref = [pi1 * x + (1 - pi1) * y for x in want[a] for y in want[b]]
        chk.close(f"exact.{name}", res["exact"][name], ref, reasons)

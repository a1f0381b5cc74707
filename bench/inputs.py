"""Seeded inputs for every workload.

The seed fixes every value; the structure of each pool (how many pairs of
each alphabet size, input class and threshold kind) is the same for every
seed, and offsets h are stratified over their log range, so the mix of easy
and hard inputs, and with it the timing population, does not drift with the
seed.

Nothing is filtered by outcome. The sweep pools are split by input class:
the classes the baseline is known to get wrong (`known_defect`) go to a
probe that runs once per run, untimed, and is checked and reported beside
the timed operations; every other class is timed. A timed operation is
expected never to fail.

A pair spec is a plain dict the sweep worker can rebuild the pair from:
raw binary64 probabilities for "p1"/"p2", or, with "family_pair" set, the
devex.fisher family point (theta, theta + h) named by its "fisher" entry.
A "fisher" entry also adds a `limit_ratios` step at offsets h, 2h, 4h.
Each spec carries its oracle (`oracle.PairOracle`) under "_oracle", which
is never sent to the program.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracle

SMALL_K = (2, 3, 4)
LARGE_K = (64, 256, 1024)
CLASSES = ("dirichlet", "skewed", "far", "near")
THRESHOLD_KINDS = ("zero", "inside", "edge")
LOG10_H = (-7.0, -2.0)
# Fisher offsets on timed ops: limit_ratios on ternary_family misses 1e-6
# relative below h of about 1e-3 (the near-identical probe keeps that range)
LOG10_FISHER_H = (-3.0, -2.0)
# see known_defect: exp(-x) is subnormal or 0 in binary64 above x = 708
UNDERFLOW_X = 700.0
TINY_EXPONENT = 1e-9
SMALL_REPLICAS = 2
# block lengths for exact_binary_tail; the same for every binary pair, so
# every binary op does the same work whatever its exponents
LADDER = (250, 500, 1000, 2000, 4000)
SIM_N = 100
SIM_TRIALS = 4000

WORKLOAD_STREAMS = {"cli_cold": 1, "sweep_small_k": 2, "sweep_large_k": 3, "simulate": 4}


def rng_for(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_STREAMS[workload]])


def _stratified_h(rng, count):
    lo, hi = LOG10_H
    cells = (np.arange(count) + rng.uniform(size=count)) / count
    return [float(10.0 ** (lo + (hi - lo) * c)) for c in rng.permutation(cells)]


def _normalized(v):
    v = np.asarray(v, dtype=float)
    return [float(x) for x in v / v.sum()]


def _raw_pair(rng, k, cls, h):
    if cls == "dirichlet":
        return _normalized(rng.dirichlet(np.ones(k))), _normalized(rng.dirichlet(np.ones(k)))
    if cls == "skewed":
        out = []
        for _ in range(2):
            p = rng.dirichlet(np.ones(k))
            tiny = rng.choice(k, size=max(1, k // 16), replace=False)
            p[tiny] = 10.0 ** rng.uniform(-6.0, -4.0, size=tiny.size)
            out.append(_normalized(p))
        return out[0], out[1]
    if cls == "far":
        if k == 2:
            e1, e2 = rng.uniform(0.01, 0.1, size=2)
            return _normalized([1 - e1, e1]), _normalized([e2, 1 - e2])
        half = k // 2
        p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
        p[:half] *= 100.0
        q[half:] *= 100.0
        return _normalized(p), _normalized(q)
    # near-identical, no family: tilt P1 by exp(h z)
    p = np.asarray(_normalized(rng.dirichlet(np.ones(k))))
    return [float(x) for x in p], _normalized(p * np.exp(h * rng.standard_normal(k)))


def tiny_exponent(orc, lambda_upper, lambda_lower):
    """True when an exact exponent is below TINY_EXPONENT * max(1, D12, D21)
    nats: the program computes it as t r - H(t), whose absolute error is
    about 1e-16 * max(1, D12, D21), so it can miss 1e-6 relative."""
    e = orc.exact_exponents(lambda_upper, lambda_lower)
    smallest = min(e[k] for k in ("alpha1", "alpha2", "beta1", "beta2"))
    return smallest < TINY_EXPONENT * max(1, orc.d12, orc.d21)


def known_defect(spec, orc):
    """Why the baseline gets this sweep input wrong, or None.

    Near-identical pairs get inaccurate C, t*, I(r) and exponents, and raise
    InadmissibleThresholds once D < 1e-12. Binary skewed pairs get t* and
    exponents off by a few 1e-6. When the asymptote 2 exp(-x),
    x = delta^2 / (2 gamma), of sqrt_scaling_report underflows, it raises
    ZeroDivisionError. Tiny exact exponents lose digits (`tiny_exponent`).
    """
    if spec["class"] == "near":
        return "near-identical pair"
    if spec["class"] == "skewed" and spec["k"] == 2:
        return "binary skewed pair"
    d, sigma_sq = orc.llr_stats()
    if spec["delta"] ** 2 * d * d / (2 * sigma_sq) > UNDERFLOW_X:
        return "sqrt_scaling_report asymptote underflows"
    if tiny_exponent(orc, *spec["th"]):
        return "tiny exact exponent"
    return None


def _fisher_point(rng, k, h):
    if k == 2:
        return {"name": "bernoulli", "alpha": None,
                "theta": float(rng.uniform(0.2, 0.8)), "h": h}
    return {"name": "ternary", "alpha": float(rng.uniform(0.1, 0.9)),
            "theta": float(rng.uniform(0.5, 2.0)), "h": h}


def _thresholds(rng, kind, orc):
    d12, d21 = float(orc.d12), float(orc.d21)
    if kind == "zero":
        return 0.0, 0.0
    if kind == "inside":
        return d12 * rng.uniform(0.05, 0.9), -d21 * rng.uniform(0.05, 0.9)
    # within 1% of the window edges
    return d12 * (1.0 - rng.uniform(0.0, 0.01)), -d21 * (1.0 - rng.uniform(0.0, 0.01))


def _finish_spec(rng, spec, orc):
    spec["_oracle"] = orc
    lu, ll = _thresholds(rng, spec["th_kind"], orc)
    spec["th"] = [lu, ll]
    d12, d21 = float(orc.d12), float(orc.d21)
    spec["r"] = [-d12 + u * (d12 + d21) for u in rng.uniform(0.02, 0.98, size=3)]
    spec["delta"] = float(rng.uniform(0.05, 0.95))
    spec["n"] = int(rng.integers(50, 2001))
    return spec


def sweep_pool(seed: int, workload: str):
    """(timed, probe): pair specs for one pass of a sweep, interleaved by
    alphabet size, and the known-defect specs, each list numbered from 0."""
    rng = rng_for(seed, workload)
    small = workload == "sweep_small_k"
    sizes = SMALL_K if small else LARGE_K
    replicas = SMALL_REPLICAS if small else 1
    combos = []
    for _ in range(replicas):
        for ci, cls in enumerate(CLASSES):
            for ti, kind in enumerate(THRESHOLD_KINDS):
                # the large-K pool takes one threshold kind per (class, K)
                for ki, k in enumerate(sizes):
                    if small or (ci + ki) % 3 == ti:
                        combos.append((k, cls, kind))
    near = [c for c in combos if c[1] == "near"]
    hs = iter(_stratified_h(rng, len(near)))
    specs = []
    for k, cls, kind in combos:
        spec = {"k": k, "class": cls, "th_kind": kind}
        h = next(hs) if cls == "near" else None
        if small and k in (2, 3):
            if cls == "near":
                spec["fisher"] = _fisher_point(rng, k, h)
                spec["family_pair"] = True
            else:
                lo, hi = LOG10_FISHER_H
                spec["fisher"] = _fisher_point(rng, k, float(10.0 ** rng.uniform(lo, hi)))
        if spec.get("family_pair"):
            fam = spec["fisher"]
            orc = oracle.family_pair(fam["name"], fam["alpha"], fam["theta"], h)
        else:
            spec["p1"], spec["p2"] = _raw_pair(rng, k, cls, h)
            orc = oracle.PairOracle(spec["p1"], spec["p2"])
        if h is not None:
            spec["h"] = h
        _finish_spec(rng, spec, orc)
        if k == 2:
            spec["ladder"] = list(LADDER)
        spec["_defect"] = known_defect(spec, orc)
        specs.append(spec)
    # interleave sizes so that a partial pass keeps the same mix
    by_size = [[s for s in specs if s["k"] == k] for k in sizes]
    by_size = [[group[i] for i in rng.permutation(len(group))] for group in by_size]
    ordered = [spec for row in zip(*by_size) for spec in row]
    timed = [s for s in ordered if not s["_defect"]]
    probe = [s for s in ordered if s["_defect"]]
    for part in (timed, probe):
        for i, spec in enumerate(part):
            spec["id"] = i
    return timed, probe


def public_spec(spec):
    """The part of a spec the program side may see."""
    return {k: v for k, v in spec.items() if not k.startswith("_")}


def _write_pair(path: Path, p1, p2):
    k = len(p1)
    path.write_text(json.dumps({"alphabet": [f"s{i}" for i in range(k)],
                                "p1": p1, "p2": p2}), encoding="utf-8")


def _moderate_pair(rng, k, target):
    """A pair with D(P1||P2) near `target` nats: P2 mixed toward P1."""
    p = np.asarray(_normalized(rng.dirichlet(np.full(k, 2.0))))
    q = np.asarray(_normalized(rng.dirichlet(np.full(k, 2.0))))
    lo, hi = 0.0, 1.0
    for _ in range(60):
        w = 0.5 * (lo + hi)
        mix = (1 - w) * p + w * q
        if float(np.sum(p * np.log(p / mix))) < target:
            lo = w
        else:
            hi = w
    return [float(x) for x in p], _normalized((1 - lo) * p + lo * q)


def cli_ops(seed: int, workdir: Path):
    """One pass of 16 cold CLI invocations, 2 of them error paths. An op
    marked "known_defect" (see `tiny_exponent`) belongs to the probe.

    Options are passed as --name=value: argparse reads a separate
    "-2.7e-05" as an option, not as the value of the one before it.

    Each op: {"argv", "expect_rc", "expect_error", "check"}; "check" tells
    the checker which oracle comparison applies.
    """
    rng = rng_for(seed, "cli_cold")
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    files = []
    for i, (k, cls) in enumerate(((2, "dirichlet"), (2, "skewed"), (2, "far"),
                                  (16, "dirichlet"), (16, "skewed"), (16, "far"))):
        p1, p2 = _raw_pair(rng, k, cls, None)
        path = workdir / f"pair{i}.json"
        _write_pair(path, p1, p2)
        files.append((str(path), oracle.PairOracle(p1, p2), p1, p2))
    for i, (path, orc, _, _) in enumerate(files):
        kind = THRESHOLD_KINDS[i % 3]
        lu, ll = _thresholds(rng, kind, orc)
        ops.append({"argv": ["exponents", path, f"--lambda-upper={lu!r}",
                             f"--lambda-lower={ll!r}"],
                    "expect_rc": 0, "check": {"kind": "exponents", "file": i,
                                              "th": [lu, ll]}})
        if tiny_exponent(orc, lu, ll):
            ops[-1]["known_defect"] = "tiny exact exponent"
    for _ in range(3):
        d = float(rng.uniform(0.5, 2.0))
        sigma_sq = d * d * float(rng.uniform(0.05, 1.0))
        n = int(rng.integers(10, 1001))
        alpha = d * float(rng.uniform(0.01, 0.9))
        sided = str(rng.choice(["one", "two"]))
        ops.append({"argv": ["bounds", f"--d={d!r}", f"--sigma-sq={sigma_sq!r}",
                             f"--n={n}", f"--alpha={alpha!r}", f"--sided={sided}"],
                    "expect_rc": 0,
                    "check": {"kind": "bounds", "d": d, "sigma_sq": sigma_sq,
                              "n": n, "alpha": alpha, "sided": sided}})
    for family in ("bernoulli", "bernoulli", "ternary", "ternary", "ternary"):
        theta = float(rng.uniform(0.2, 0.8) if family == "bernoulli" else rng.uniform(0.5, 2.0))
        alpha = None if family == "bernoulli" else float(rng.uniform(0.1, 0.9))
        # the smallest offset, h0 / 4, stays at or above 1e-3
        h0 = float(10.0 ** rng.uniform(math.log10(4 * 10.0 ** LOG10_FISHER_H[0]),
                                       LOG10_FISHER_H[1]))
        offsets = [h0, h0 / 2, h0 / 4]
        argv = ["fisher", f"--family={family}", f"--theta={theta!r}",
                "--offsets=" + ",".join(repr(h) for h in offsets)]
        if alpha is not None:
            argv.append(f"--alpha={alpha!r}")
        ops.append({"argv": argv, "expect_rc": 0,
                    "check": {"kind": "fisher", "family": family, "alpha": alpha,
                              "theta": theta, "offsets": offsets}})
    # error paths: one malformed pair file, one inadmissible threshold
    bad = workdir / "malformed.json"
    variant = int(rng.integers(4))
    p1, p2 = files[0][2], files[0][3]
    if variant == 0:
        bad.write_text(json.dumps({"alphabet": ["a", "b"], "p1": p1, "p2": p2})[:-7],
                       encoding="utf-8")
        expect = "DevexError"
    elif variant == 1:
        bad.write_text(json.dumps({"alphabet": ["a", "b"], "p1": [-p1[0], p1[1]], "p2": p2}),
                       encoding="utf-8")
        expect = "NonPositiveProbability"
    elif variant == 2:
        bad.write_text(json.dumps({"alphabet": ["a", "b"], "p1": [p1[0], p1[1] + 0.25],
                                   "p2": p2}), encoding="utf-8")
        expect = "NotNormalized"
    else:
        bad.write_text(json.dumps({"alphabet": ["a", "a"], "p1": p1, "p2": p2}),
                       encoding="utf-8")
        expect = "DuplicateLabel"
    ops.append({"argv": ["exponents", str(bad)], "expect_rc": 2, "expect_error": expect})
    path, orc = files[3][0], files[3][1]
    over = float(orc.d12) * float(rng.uniform(1.01, 2.0))
    ops.append({"argv": ["exponents", path, f"--lambda-upper={over!r}"],
                "expect_rc": 2, "expect_error": "InadmissibleThresholds"})
    order = rng.permutation(len(ops))
    return [ops[i] for i in order], [f[1] for f in files]


def simulate_ops(seed: int, workdir: Path):
    """One pass: a binary pair with thresholds inside the window and a
    16-symbol pair at zero thresholds, each run at --threads 1 then
    --threads 2 with one seed, n and trial count. Two files keep each op
    repeated about ten times in a run."""
    rng = rng_for(seed, "simulate")
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for i, (k, kind) in enumerate(((2, "inside"), (16, "zero"))):
        p1, p2 = _moderate_pair(rng, k, float(rng.uniform(0.01, 0.04)))
        path = workdir / f"sim{i}.json"
        _write_pair(path, p1, p2)
        orc = oracle.PairOracle(p1, p2)
        lu, ll = _thresholds(rng, kind, orc)
        sim_seed = int(rng.integers(0, 2 ** 63))
        check = {"kind": "simulate", "k": k, "p1": p1, "p2": p2, "th": [lu, ll]}
        for threads in (1, 2):
            ops.append({"argv": ["simulate", str(path), f"--n={SIM_N}",
                                 f"--trials={SIM_TRIALS}", f"--seed={sim_seed}",
                                 f"--lambda-upper={lu!r}", f"--lambda-lower={ll!r}",
                                 f"--threads={threads}"],
                        "expect_rc": 0, "threads": threads, "check": check})
    return ops


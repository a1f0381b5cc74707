"""Child-process side of the benchmark; needs the checkout's src on PYTHONPATH.

    worker.py --probe lib|cli
        import devex (lib: plus one warm-up call) or devex.cli, then print
        time.monotonic(): the moment a first operation could start.
    worker.py --sweep JOB RESULT
        run the sweep described in JOB, then one untimed pass over its
        known-defect probe, and write RESULT (both JSON files).
    worker.py --cli-trace SPANS -- ARGV...
        install the span wrappers, run devex.cli.main(ARGV), write SPANS and
        exit with main's return code.
"""

from __future__ import annotations

import json
import sys
import time

SQRT_GRID = (10, 100, 1000)


def warm_up(dx):
    pair = dx.HypothesisPair(dx.make_pmf(["a", "b", "c"], [0.2, 0.3, 0.5]),
                             dx.make_pmf(["a", "b", "c"], [0.3, 0.3, 0.4]))
    dx.compare_report(pair, dx.ZERO_THRESHOLDS)
    dx.chernoff_information(pair)


def build(dx, spec, pass_no):
    """The pair for one op. Raw pairs are relabelled and rotated every pass,
    so no pass hands the program an object or tuple it has seen before."""
    fam = spec.get("fisher")
    family = None
    if fam:
        from devex.fisher import ternary_family

        family = (dx.bernoulli_family() if fam["name"] == "bernoulli"
                  else ternary_family(fam["alpha"]))
    if spec.get("family_pair"):
        pair = dx.HypothesisPair(family.pmf_at(fam["theta"]),
                                 family.pmf_at(fam["theta"] + fam["h"]))
    else:
        k = spec["k"]
        r = pass_no % k
        labels = [f"p{pass_no}s{i}" for i in range(k)]
        pair = dx.HypothesisPair(dx.make_pmf(labels, spec["p1"][r:] + spec["p1"][:r]),
                                 dx.make_pmf(labels, spec["p2"][r:] + spec["p2"][:r]))
    return pair, dx.Thresholds(*spec["th"]), family


def fit_points(ladder, probs):
    """Ladder points whose tail is inside (0, 1): far pairs underflow to 0 at
    large n, and a zero estimate carries no slope information."""
    return [(n, p) for n, p in zip(ladder, probs) if 0.0 < p < 1.0]


def pipeline(dx, spec, pair, th, family):
    """One op: the per-pair pipeline. Each step's result or exception."""
    out = {}

    def step(key, fn):
        try:
            out[key] = fn()
        except Exception as exc:  # a failing step is a measured outcome
            out[key] = exc

    step("report", lambda: dx.compare_report(pair, th))
    step("chernoff", lambda: dx.chernoff_information(pair))
    step("rate", lambda: [dx.rate_function(pair, r) for r in spec["r"]])
    step("stats", lambda: dx.llr_stats(pair, 1))
    stats = out["stats"]
    if not isinstance(stats, Exception):
        def concentration():
            params = dx.MartingaleParams(d=stats.d, sigma_sq=stats.sigma_sq)
            alpha = spec["delta"] * stats.d
            return (dx.refined_bound(params, spec["n"], alpha),
                    dx.sqrt_scaling_report(params, alpha, SQRT_GRID),
                    dx.quad_cubic_floor(params.delta(alpha), params.gamma))
        step("concentration", concentration)
    if spec["k"] == 2:
        step("tails", lambda: [dx.exact_binary_tail(pair, n, th) for n in spec["ladder"]])
        tails = out["tails"]
        if not isinstance(tails, Exception):
            points = fit_points(spec["ladder"], [t.alpha1 for t in tails])
            if len(points) >= 3:
                step("fit", lambda: dx.empirical_exponent(points))
    if family is not None:
        h = spec["fisher"]["h"]
        step("limit", lambda: dx.limit_ratios(family, spec["fisher"]["theta"],
                                              [h, 2 * h, 4 * h]))
    return out


def extract(out):
    """Plain-number form of a pipeline result, for the checker."""
    res = {}
    for key, val in out.items():
        if isinstance(val, Exception):
            res[key] = {"error": type(val).__name__}
        elif key == "report":
            e = val.exact
            res[key] = {"exact": [e.alpha1, e.alpha2, e.beta1, e.beta2, e.pe1, e.pe2],
                        "eps": [val.epsilons[(1, 1)], val.epsilons[(2, 1)]]}
        elif key == "chernoff":
            res[key] = list(val)
        elif key == "rate":
            res[key] = [r.value for r in val]
        elif key == "stats":
            res[key] = [val.d, val.sigma_sq]
        elif key == "concentration":
            refined, rows, floor = val
            res[key] = {"refined": refined, "floor": floor,
                        "sqrt": [[r.n, r.bound, r.asymptote] for r in rows]}
        elif key == "tails":
            res[key] = [[t.alpha1, t.alpha2, t.beta1, t.beta2] for t in val]
        elif key == "fit":
            res[key] = list(val)
        elif key == "limit":
            res[key] = {"j": val.j, "rows": [[r.h, r.divergence_ratio, r.chernoff_ratio]
                                              for r in val.rows]}
    return res


def sweep(job_path, result_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    import devex as dx

    warm_up(dx)
    ready_at = time.monotonic()
    pool, seconds, trace = job["pool"], job["seconds"], job["trace"]
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
    ops, table, index = [], [], {}

    def run(spec, pass_no, traced):
        pair, th, family = build(dx, spec, pass_no)
        if traced:
            tracer.op = len(ops)
            tracer.install()
        t0 = time.perf_counter()
        out = pipeline(dx, spec, pair, th, family)
        dt = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        key = json.dumps(extract(out), sort_keys=True)
        if key not in index:
            index[key] = len(table)
            table.append(key)
        ops.append([spec["id"], pass_no, dt, index[key], int(traced)])

    def run_pass(pass_no):
        """False when the time ran out part-way (untraced runs only)."""
        for i, spec in enumerate(pool):
            if trace:
                # untraced twin first on even ops, second on odd ones
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    run(spec, pass_no, traced)
            elif time.perf_counter() - start >= seconds:
                return False
            else:
                run(spec, pass_no, False)
        return True

    start = time.perf_counter()
    pass_no = 0
    while True:
        pass_start = time.perf_counter()
        if not run_pass(pass_no):
            break
        pass_no += 1
        now = time.perf_counter()
        # traced runs end on a whole pass, so their counts repeat exactly
        if trace and now - start + (now - pass_start) > seconds:
            break
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.write(job["spans"])
    # the known-defect probe: one untimed, untraced pass
    probe = [extract(pipeline(dx, spec, *build(dx, spec, 0))) for spec in job["probe"]]
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"ready_at": ready_at, "elapsed": elapsed, "passes": pass_no,
                   "ops": ops, "results": [json.loads(k) for k in table],
                   "probe": probe}, fh)


def cli_trace(spans_path, argv):
    import spans

    tracer = spans.Tracer()
    tracer.install()
    tracer.op = 0
    import devex.cli

    try:
        rc = devex.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.write(spans_path)
    return rc


def main(argv):
    if argv[0] == "--probe":
        if argv[1] == "cli":
            import devex.cli  # noqa: F401
        else:
            import devex as dx

            warm_up(dx)
        print(repr(time.monotonic()))
        return 0
    if argv[0] == "--sweep":
        sweep(argv[1], argv[2])
        return 0
    if argv[0] == "--cli-trace" and argv[2] == "--":
        return cli_trace(argv[1], argv[3:])
    print(f"usage: see {__file__}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

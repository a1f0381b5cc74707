"""devex benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a devex checkout; it imports devex from ./src only.
Inputs come from --seed, the program is driven through `python -m
devex.cli` and the public `devex.*` functions, every output is checked
after the clock stops, inputs the baseline is known to get wrong run once,
untimed, in a probe reported beside the timed ops, and the last line of
stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (see bench/README.md).
A full record, with the environment, goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import jsonschema

import checks
import inputs
import spans

WORKLOADS = ("cli_cold", "sweep_small_k", "sweep_large_k", "simulate")
SETUP_PROBES = 5
IMPORTTIME_RUNS = 3
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 120.0

END_TO_END = (("setup_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))
_PROBDIST = ("log_mgf", "kl_divergence", "llr_stats", "binary_kl")
_EXPONENTS = ("compare_report", "rate_function", "chernoff_information",
              "exact_exponents", "refined_lower_bounds", "azuma_lower_bounds")
PER_LAYER = (
    [("cli.import_s", "s"), ("cli.import_scipy_s", "s"),
     ("cli.main.self_s", "s/op"), ("cli.emit.self_s", "s/op")]
    + [(f"probdist.{f}.{m}", u) for f in _PROBDIST
       for m, u in (("calls", "calls/op"), ("self_s", "s/op"))]
    + [(f"exponents.{f}.{m}", u) for f in _EXPONENTS
       for m, u in (("calls", "calls/op"), ("self_s", "s/op"))]
    + [("exponents.check_admissible.calls_per_report", "calls/report"),
       ("exponents.chernoff_information.log_mgf_per_call", "calls/call"),
       ("concentration.self_s", "s/op"),
       ("fisher.limit_ratios.self_s", "s/op"),
       ("fisher.fisher_information.self_s", "s/op"),
       ("montecarlo.simulate_test.s_per_trial", "s/trial"),
       ("montecarlo.rng_streams_per_trial", "1/trial"),
       ("montecarlo.simulate_test.cpu_util", "ratio"),
       ("montecarlo.exact_binary_tail.self_s", "s/op"),
       ("montecarlo.empirical_exponent.self_s", "s/op"),
       ("trace.overhead_frac", "ratio")])


def python(*args):
    return [sys.executable, *args]


class Harness:
    """Paths, child environment and process bookkeeping for one run."""

    def __init__(self, root: Path, workload: str, seed: int, trace: bool):
        self.root = root
        self.work = Path("bench/.work") / f"{workload}-{seed}-{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("PYTHON") and k != "DEVEX_LOG"}
        self.env["PYTHONPATH"] = str(root / "src")

    def spawn(self, cmd, timeout=CHILD_TIMEOUT_S):
        """Run a child to completion: (wall s, exit code, peak RSS MB,
        stdout, stderr, monotonic spawn time)."""
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawned = time.monotonic()
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, proc.returncode, usage.ru_maxrss / 1024.0,
                out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8"),
                spawned)

    def setup_seconds(self, kind):
        """Median time from spawning an interpreter to devex being ready."""
        samples = []
        for _ in range(SETUP_PROBES):
            _, rc, _, out, err, spawned = self.spawn(
                python("bench/worker.py", "--probe", kind))
            if rc != 0:
                raise RuntimeError(f"setup probe failed: {err.strip()[-300:]}")
            samples.append(float(out.strip()) - spawned)
        return statistics.median(samples), samples


def upper_decile_times(times, op_ids):
    """Each distinct operation's 90th-percentile wall time over its repeats.

    The host's speed swings between a loaded and an unloaded state for
    seconds to minutes at a time, and a run may see mostly one or the
    other. An op's upper decile reads the loaded state whenever a tenth of
    its repeats saw it, which nearly every run does.
    """
    repeats = {}
    for i, t in zip(op_ids, times):
        repeats.setdefault(i, []).append(t)
    return [sorted(v)[len(v) * 9 // 10] for v in repeats.values()]


def tail(times):
    """(value, percentile, count): the highest percentile with at least
    TAIL_BEYOND samples above it, or the maximum when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


# ---- CLI workloads -----------------------------------------------------

def run_cli_workload(h: Harness, workload, seed, seconds, trace):
    if workload == "cli_cold":
        ops, files = inputs.cli_ops(seed, h.work)
    else:
        ops, files = inputs.simulate_ops(seed, h.work), None
    probe = [op for op in ops if op.get("known_defect")]
    ops = [op for op in ops if not op.get("known_defect")]
    records = []  # [op index, traced, wall, rc, rss, stdout, stderr]
    traced_spans = []

    def run(i, traced):
        op = ops[i]
        if traced:
            path = h.work / f"spans{len(traced_spans)}.tsv"
            cmd = python("bench/worker.py", "--cli-trace", str(path), "--", *op["argv"])
        else:
            cmd = python("-m", "devex.cli", *op["argv"])
        wall, rc, rss, out, err, _ = h.spawn(cmd)
        if traced:
            traced_spans.append((len(records), path))
        records.append([i, traced, wall, rc, rss, out, err])

    start = time.perf_counter()
    if not trace:
        # simulate stops only after a whole (--threads 1, --threads 2) twin
        step = 2 if workload == "simulate" else 1
        i = 0
        while i == 0 or time.perf_counter() - start < seconds:
            for j in range(step):
                run((i + j) % len(ops), False)
            i += step
    else:
        while True:
            pass_start = time.perf_counter()
            for i in range(len(ops)):
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    run(i, traced)
            now = time.perf_counter()
            if now - start + (now - pass_start) > seconds:
                break
    elapsed = time.perf_counter() - start
    found = [h.spawn(python("-m", "devex.cli", *op["argv"]))[1:5] for op in probe]

    chk = checks.Checker()
    schema = json.loads(Path("src/devex/schema/report.schema.json").read_text())
    validator = jsonschema.Draft202012Validator(schema)
    defects = []
    for op, (rc, _, out, err) in zip(probe, found):
        reasons = checks.check_cli(chk, op, rc, out, err, validator, files)
        if reasons:
            defects.append({"op": " ".join(op["argv"]) + f" ({op['known_defect']})",
                            "reasons": reasons})
    verdicts = {}
    failures = []
    harness_errors = []
    untraced_out = {}
    for n, (i, traced, wall, rc, rss, out, err) in enumerate(records):
        key = (i, rc, out, err)
        if key not in verdicts:
            verdicts[key] = checks.check_cli(chk, ops[i], rc, out, err, validator, files)
        reasons = list(verdicts[key])
        if workload == "simulate" and not traced and i % 2 == 1:
            twin = next(r for r in reversed(records[:n]) if r[0] == i - 1 and not r[1])
            if twin[5] != out:
                reasons.append("stdout differs between --threads 1 and --threads 2")
        if traced:
            if untraced_out.setdefault(i, out) != out:
                harness_errors.append(f"traced run changed the output of op {i}")
        else:
            untraced_out.setdefault(i, out)
        if reasons:
            failures.append({"op": " ".join(ops[i]["argv"]), "reasons": reasons})

    plain = [r for r in records if not r[1]]
    times = [r[2] for r in plain]
    result = {
        "times": times, "op_ids": [r[0] for r in plain],
        "elapsed": elapsed,
        "attempted": len(records), "failures": failures,
        "harness_errors": harness_errors,
        "peak_rss_mb": max(r[4] for r in plain),
        "max_rel_err": chk.max_rel_err,
        "compared": chk.compared,
        "defects": defects, "probed": len(probe),
    }
    if workload == "simulate":
        for threads in (1, 2):
            sel = [r for r in plain if ops[r[0]]["threads"] == threads]
            result[f"trials_per_s.t{threads}"] = (
                2 * inputs.SIM_TRIALS * len(sel) / sum(r[2] for r in sel))
    if trace:
        merged, rng = [], {}
        for rec_index, path in traced_spans:
            part, streams = spans.read(path)
            base = len(merged)
            merged.extend((rec_index, name, s, e, p + base if p >= 0 else -1, ok, cpu)
                          for _, name, s, e, p, ok, cpu in part)
            rng[rec_index] = streams
        result["spans"] = merged
        result["rng_streams"] = rng
        result["traced_times"] = [r[2] for r in records if r[1]]
        result["op_threads"] = {n: ops[r[0]].get("threads", 1) for n, r in enumerate(records)}
    return result


# ---- sweeps --------------------------------------------------------------

def describe(spec):
    return (f"pair {spec['id']} (K={spec['k']}, {spec['class']}, {spec['th_kind']} thresholds"
            + (f", h={spec['h']:.3g}" if "h" in spec else "")
            + (f"; {spec['_defect']}" if spec["_defect"] else "") + ")")


def run_sweep_workload(h: Harness, workload, seed, seconds, trace):
    pool, probe = inputs.sweep_pool(seed, workload)
    job = h.work / "job.json"
    out = h.work / "result.json"
    span_path = h.work / "spans.tsv"
    job.write_text(json.dumps({"pool": [inputs.public_spec(s) for s in pool],
                               "probe": [inputs.public_spec(s) for s in probe],
                               "seconds": seconds, "trace": int(trace),
                               "spans": str(span_path)}), encoding="utf-8")
    wall, rc, rss, _, err, spawned = h.spawn(
        python("bench/worker.py", "--sweep", str(job), str(out)),
        timeout=seconds * 3 + CHILD_TIMEOUT_S)
    if rc != 0:
        raise RuntimeError(f"sweep worker failed ({rc}): {err.strip()[-500:]}")
    res = json.loads(out.read_text(encoding="utf-8"))

    chk = checks.Checker()
    refs = {}
    verdicts = {}
    failures = []
    harness_errors = []
    first_result = {}
    for spec_id, pass_no, dt, ri, traced in res["ops"]:
        spec = pool[spec_id]
        if (spec_id, ri) not in verdicts:
            if spec_id not in refs:
                refs[spec_id] = checks.SweepReference(spec)
            verdicts[(spec_id, ri)] = checks.check_sweep_result(
                chk, spec, refs[spec_id], res["results"][ri])
        if traced and first_result.get((spec_id, pass_no), ri) != ri:
            harness_errors.append(f"traced run changed the result of pair {spec_id}")
        first_result.setdefault((spec_id, pass_no), ri)
        if verdicts[(spec_id, ri)]:
            failures.append({"op": describe(spec), "reasons": verdicts[(spec_id, ri)]})
    defects = []
    for spec, found in zip(probe, res["probe"]):
        reasons = checks.check_sweep_result(chk, spec, checks.SweepReference(spec), found)
        if reasons:
            defects.append({"op": describe(spec), "reasons": reasons})
    plain = [op for op in res["ops"] if not op[4]]
    result = {
        "times": [op[2] for op in plain], "op_ids": [op[0] for op in plain],
        "elapsed": res["elapsed"],
        "attempted": len(res["ops"]), "failures": failures,
        "harness_errors": harness_errors,
        "peak_rss_mb": rss, "max_rel_err": chk.max_rel_err, "compared": chk.compared,
        "ready_s": res["ready_at"] - spawned, "passes": res["passes"],
        "defects": defects, "probed": len(probe),
    }
    if trace:
        result["spans"], streams = spans.read(span_path)
        result["rng_streams"] = {None: streams}
        result["traced_times"] = [op[2] for op in res["ops"] if op[4]]
        result["op_threads"] = {}
    return result


# ---- per-layer metrics ---------------------------------------------------

def import_times(h: Harness):
    """Median (devex.cli, scipy share) import seconds from -X importtime.

    The scipy share sums the cumulative time of every scipy module that no
    other scipy module imported.
    """
    totals, scipy = [], []
    for _ in range(IMPORTTIME_RUNS):
        _, rc, _, _, err, _ = h.spawn(python("-X", "importtime", "-c", "import devex.cli"))
        if rc != 0:
            raise RuntimeError(f"import of devex.cli failed: {err.strip()[-300:]}")
        entries = []
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                indent = len(parts[2]) - len(parts[2].lstrip())
                entries.append((indent // 2, parts[2].strip(), int(parts[1]) / 1e6))
        total = share = 0.0
        ancestors = []
        # importtime prints each module after the modules it imported
        for depth, name, seconds in reversed(entries):
            del ancestors[depth:]
            if name == "devex.cli":
                total = seconds
            if name.split(".")[0] == "scipy" and not any(
                    a.split(".")[0] == "scipy" for a in ancestors):
                share += seconds
            ancestors.append(name)
        totals.append(total)
        scipy.append(share)
    return statistics.median(totals), statistics.median(scipy)


def per_layer(h: Harness, result):
    summary = spans.summarize(result["spans"])
    n_ops = len(result["traced_times"])
    calls, self_s = summary["calls"], summary["self_s"]
    metrics = {}
    metrics["cli.import_s"], metrics["cli.import_scipy_s"] = import_times(h)
    metrics["cli.main.self_s"] = sum(v for k, v in self_s.items()
                                     if k.startswith("cli.") and k != "cli.emit") / n_ops
    metrics["cli.emit.self_s"] = self_s.get("cli.emit", 0.0) / n_ops
    for mod, names in (("probdist", _PROBDIST), ("exponents", _EXPONENTS)):
        for f in names:
            metrics[f"{mod}.{f}.calls"] = calls.get(f"{mod}.{f}", 0) / n_ops
            metrics[f"{mod}.{f}.self_s"] = self_s.get(f"{mod}.{f}", 0.0) / n_ops
    desc = summary["descendants"]
    metrics["exponents.check_admissible.calls_per_report"] = spans.mean_or_zero(
        desc.get(("exponents.compare_report", "exponents.check_admissible"), []))
    metrics["exponents.chernoff_information.log_mgf_per_call"] = spans.mean_or_zero(
        desc.get(("exponents.chernoff_information", "probdist.log_mgf"), []))
    metrics["concentration.self_s"] = sum(v for k, v in self_s.items()
                                          if k.startswith("concentration.")) / n_ops
    for f in ("fisher.limit_ratios", "fisher.fisher_information",
              "montecarlo.exact_binary_tail", "montecarlo.empirical_exponent"):
        metrics[f"{f}.self_s"] = self_s.get(f, 0.0) / n_ops
    sim = [s for s in result["spans"] if s[1] == "montecarlo.simulate_test"]
    trials = 2 * inputs.SIM_TRIALS * len({s[0] for s in sim})
    metrics["montecarlo.simulate_test.s_per_trial"] = (
        sum(s[3] - s[2] for s in sim) / trials if trials else 0.0)
    metrics["montecarlo.rng_streams_per_trial"] = (
        sum(result["rng_streams"].values()) / trials if trials else 0.0)
    two = [s for s in sim if result["op_threads"].get(s[0]) == 2]
    metrics["montecarlo.simulate_test.cpu_util"] = (
        sum(s[6] for s in two) / sum(s[3] - s[2] for s in two) if two else 0.0)
    metrics["trace.overhead_frac"] = (statistics.median(result["traced_times"])
                                      / statistics.median(result["times"]) - 1.0)
    return metrics


# ---- environment and output ------------------------------------------------

def environment(root: Path, seed: int):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = root / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath", "jsonschema"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), **versions,
            "git_commit": commit, "seed": seed}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    os.chdir(root)
    if not Path("src/devex/__init__.py").is_file() or \
            not Path("src/devex/schema/report.schema.json").is_file():
        print(f"error: no devex sources under {root / 'src'}; "
              "run from the root of a devex checkout", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    h = Harness(root, args.workload, args.seed, trace)
    # compile and cache bytecode before anything is timed
    _, rc, _, _, err, _ = h.spawn(python("-c", "import devex.cli"))
    if rc != 0:
        print(f"error: cannot import devex.cli: {err.strip()[-300:]}", file=sys.stderr)
        return 2
    cli_like = args.workload in ("cli_cold", "simulate")
    setup, setup_samples = h.setup_seconds("cli" if cli_like else "lib")
    runner = run_cli_workload if cli_like else run_sweep_workload
    result = runner(h, args.workload, args.seed, args.seconds, trace)

    times = result["times"]
    per_op = upper_decile_times(times, result["op_ids"])
    tail_value, tail_pct, count = tail(times)
    end_to_end = {
        "setup_s": setup,
        "op_p50_s": statistics.median(per_op),
        "op_tail_s": tail_value,
        "ops_per_s": len(per_op) / sum(per_op),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    failed = len(result["failures"])
    info = {
        "op_tail_percentile": tail_pct, "op_count": count,
        "failed_frac": failed / result["attempted"],
        "max_rel_err": result["max_rel_err"], "values_compared": result["compared"],
        "known_defects.probed": result["probed"],
        "known_defects.failed": len(result["defects"]),
    }
    for key in ("trials_per_s.t1", "trials_per_s.t2"):
        if key in result:
            info[key] = result[key]
    units = dict(END_TO_END + tuple(PER_LAYER))
    layers = per_layer(h, result) if trace else None
    reported = {name: layers[name] for name, _ in PER_LAYER} if trace else end_to_end
    correct = not result["harness_errors"] and len(times) > 0

    def tally(failures):
        counts = {}
        for f in failures:
            for r in f["reasons"]:
                label = re.sub(r"[@(].*", "", r.split(":")[0]).strip()
                counts[label] = counts.get(label, 0) + 1
        return counts

    reasons = tally(result["failures"])
    defect_reasons = tally(result["defects"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": int(trace), "environment": environment(root, args.seed),
        "correct": correct, "attempted": result["attempted"], "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
        "end_to_end": end_to_end, "info": info,
        "setup_samples_s": setup_samples, "op_times_s": times,
        "op_ids": result["op_ids"],
        "failure_reasons": reasons, "failures": result["failures"][:200],
        "known_defect_reasons": defect_reasons, "known_defects": result["defects"],
        "harness_errors": result["harness_errors"],
    }
    out_dir = Path("bench/results")
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(trace)}"
    out_file = out_dir / f"{stem}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    if trace:
        spans.write(out_dir / f"{stem}-spans.tsv", result["spans"],
                    sum(result["rng_streams"].values()))

    for name, value in end_to_end.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, value in info.items():
        print(f"{name} = {value:.6g}")
    for label, n in sorted(reasons.items(), key=lambda kv: -kv[1]):
        print(f"failure: {n} x {label}")
    for label, n in sorted(defect_reasons.items(), key=lambda kv: -kv[1]):
        print(f"known defect: {n} x {label}")
    if trace:
        for name, value in reported.items():
            print(f"{name} = {value:.6g} {units[name]}")
    print(f"record: {out_file}")
    shutil.rmtree(h.work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Reads hypothesis pairs from JSON files, runs the library, and emits a
machine-readable report on stdout:

    {"command": ..., "inputs": ..., "results": ...}

Numbers stay numbers (shortest round-trip representation); infinities become
the string "inf" since JSON has none. Diagnostics go to stderr only, so the
results stream stays pure JSON (or CSV under --csv). Exit codes: 0 success,
2 input or validation error, 3 internal numeric failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

from .concentration import (
    ONE_SIDED,
    TWO_SIDED,
    MartingaleParams,
    azuma_bound,
    quad_cubic_floor,
    refined_bound,
)
from .errors import DevexError, DomainError, NoConvergence
from .exponents import EVENTS, PE_EVENTS, Thresholds, compare_report
from .fisher import bernoulli_family, limit_ratios, ternary_family
from .probdist import HypothesisPair, make_pmf

log = logging.getLogger("devex.cli")

PAIR_FIELDS = ("alphabet", "p1", "p2")


def _array_field(path: str, raw: dict, field: str) -> list:
    value = raw[field]
    if not isinstance(value, list):
        raise DevexError(f"{path}: field {field} must be a JSON array")
    return value


def load_pair(path: str):
    """Parse a pair file {"alphabet": [...], "p1": [...], "p2": [...]}."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise DevexError(f"{path}: {e}") from e
    except json.JSONDecodeError as e:
        raise DevexError(
            f"{path}: line {e.lineno} column {e.colno}: {e.msg}"
        ) from e
    if not isinstance(raw, dict):
        raise DevexError(f"{path}: top level must be a JSON object")
    missing = [f for f in PAIR_FIELDS if f not in raw]
    extra = [f for f in raw if f not in PAIR_FIELDS]
    if missing:
        raise DevexError(f"{path}: missing field(s) {', '.join(missing)}")
    if extra:
        raise DevexError(f"{path}: unknown field(s) {', '.join(extra)}")
    labels = _array_field(path, raw, "alphabet")
    pmfs = []
    for field in ("p1", "p2"):
        probs = _array_field(path, raw, field)
        for i, x in enumerate(probs):
            # bool is an int subclass, but JSON true/false is not a number
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise DevexError(f"{path}: field {field}: entry {i} = "
                                 f"{json.dumps(x)} is not a number")
        try:
            pmfs.append(make_pmf(labels, probs))
        except DevexError as e:
            raise type(e)(f"{path}: field {field}: {e}") from e
        except OverflowError as e:
            # an integer literal too large for a float
            raise DevexError(f"{path}: field {field}: {e}") from e
    pair = HypothesisPair(*pmfs)
    log.info("loaded pair from %s: %d symbols", path, pair.size())
    return pair, raw


def _component_items(prefix: str, table: dict):
    for (i, j), value in sorted(table.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        yield f"{prefix}_i{i}j{j}", value


def cmd_exponents(args) -> dict:
    pair, raw = load_pair(args.pair_file)
    th = Thresholds(lambda_upper=args.lambda_upper, lambda_lower=args.lambda_lower)
    report = compare_report(pair, th)
    results = {f"exact_{k}": v for k, v in report.exact._asdict().items()}
    results.update({
        "refined_lb_pe1": report.refined.pe1,
        "refined_lb_pe2": report.refined.pe2,
        "azuma_lb_pe1": report.azuma.pe1,
        "azuma_lb_pe2": report.azuma.pe2,
        "gamma1": report.gammas[0],
        "gamma2": report.gammas[1],
        "gamma_inv1": report.gamma_inv[0],
        "gamma_inv2": report.gamma_inv[1],
    })
    results.update(_component_items("refined_lb", report.refined.components))
    results.update(_component_items("azuma_lb", report.azuma.components))
    results.update(_component_items("epsilon", report.epsilons))
    results.update(_component_items("delta", report.deltas))
    results.update(_component_items("improvement", report.improvement))
    return {
        "command": "exponents",
        "inputs": {
            "pair_file": args.pair_file,
            **{f: raw[f] for f in PAIR_FIELDS},
            "lambda_upper": args.lambda_upper,
            "lambda_lower": args.lambda_lower,
        },
        "results": results,
    }


def cmd_bounds(args) -> dict:
    params = MartingaleParams(d=args.d, sigma_sq=args.sigma_sq)
    sided = ONE_SIDED if args.sided == "one" else TWO_SIDED
    delta = params.delta(args.alpha)
    refined = refined_bound(params, args.n, args.alpha, sided)
    # one jump d sqrt(n) has the same sum of squares as n jumps d, without
    # n rounded additions or an n-step loop; refined_bound has checked n
    azuma = azuma_bound((args.d * math.sqrt(args.n),), args.alpha * args.n)
    floor = quad_cubic_floor(delta, params.gamma) if delta <= 1.0 else None
    return {
        "command": "bounds",
        "inputs": {
            "d": args.d,
            "sigma_sq": args.sigma_sq,
            "n": args.n,
            "alpha": args.alpha,
            "sided": args.sided,
        },
        "results": {
            "azuma": azuma,
            "refined": refined,
            "delta": delta,
            "gamma": params.gamma,
            "quad_cubic_floor": floor,
        },
    }


def cmd_fisher(args) -> dict:
    if args.family == "bernoulli":
        if args.alpha is not None:
            raise DevexError("--alpha only applies to the ternary family")
        family = bernoulli_family()
    else:
        if args.alpha is None:
            raise DevexError("the ternary family requires --alpha")
        family = ternary_family(args.alpha)
    try:
        offsets = [float(tok) for tok in args.offsets.split(",") if tok.strip()]
    except ValueError as e:
        raise DevexError(f"--offsets: {e}") from e
    report = limit_ratios(family, args.theta, offsets)
    return {
        "command": "fisher",
        "inputs": {
            "family": args.family,
            "alpha": args.alpha,
            "theta": args.theta,
            "offsets": offsets,
        },
        "results": {
            "j": report.j,
            "offsets": [row.h for row in report.rows],
            "divergence_ratio": [row.divergence_ratio for row in report.rows],
            "chernoff_ratio": [row.chernoff_ratio for row in report.rows],
            "el_ratio": [row.el_ratio for row in report.rows],
            "loosened_ratio": [row.loosened_ratio for row in report.rows],
            "divergence_limit": report.divergence_limit,
            "chernoff_limit": report.chernoff_limit,
            "el_limit": report.el_limit,
            "loosened_limit": report.loosened_limit,
            "a_theta": report.a_theta,
        },
    }


def cmd_simulate(args) -> dict:
    # the only subcommand that needs numpy, so only it loads it
    from .montecarlo import SimConfig, exact_binary_tail, simulate_test

    if args.threads < 1:
        raise DomainError(f"threads = {args.threads} must be a positive integer")
    pair, raw = load_pair(args.pair_file)
    th = Thresholds(lambda_upper=args.lambda_upper, lambda_lower=args.lambda_lower)
    config = SimConfig(
        n=args.n,
        trials=args.trials,
        seed=args.seed,
        thresholds=th,
        priors=(args.pi1, 1.0 - args.pi1),
    )
    result = simulate_test(pair, config)
    log.info("simulated %d trials per hypothesis at n=%d on one thread",
             args.trials, args.n)
    exact = None
    if pair.size() == 2:
        tails = exact_binary_tail(pair, args.n, th)
        pi1, pi2 = config.priors
        exact = dict(tails._asdict(), **{
            pe: pi1 * getattr(tails, a) + pi2 * getattr(tails, b)
            for pe, (a, b) in PE_EVENTS.items()})
    # the thread count is accepted but unused, so it is not part of the
    # echoed inputs
    return {
        "command": "simulate",
        "inputs": {
            "pair_file": args.pair_file,
            **{f: raw[f] for f in PAIR_FIELDS},
            "n": args.n,
            "trials": args.trials,
            "seed": args.seed,
            "lambda_upper": args.lambda_upper,
            "lambda_lower": args.lambda_lower,
            "pi1": args.pi1,
        },
        "results": {
            **{k: getattr(result, k)._asdict() for k in (*EVENTS, *PE_EVENTS)},
            "counts": dict(result.counts),
            "exact": exact,
        },
    }


def _jsonify(value):
    """Make a report JSON-serializable; infinities become "inf"/"-inf"."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _flatten(value, path, rows):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(value[k], f"{path}.{k}" if path else str(k), rows)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(v, f"{path}.{i}", rows)
    else:
        rows.append((path, "" if value is None else str(value)))


def emit(report: dict, csv: bool):
    out = sys.stdout
    payload = _jsonify(report)
    if csv:
        rows = []
        _flatten(payload["results"], "", rows)
        out.write("key,value\n")
        for key, value in rows:
            out.write(f"{key},{value}\n")
    else:
        out.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
        out.write("\n")


def _configure_logging():
    name = os.environ.get("DEVEX_LOG", "error").strip().lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if name not in levels:
        print(f"warning: DEVEX_LOG={name!r} not one of error/info/debug",
              file=sys.stderr)
        name = "error"
    # own the package logger rather than the root: basicConfig silently
    # no-ops when a host application (or test runner) already installed a
    # root handler. Replacing the handler keeps repeated main() calls in
    # one process from printing duplicate lines.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    pkg = logging.getLogger("devex")
    pkg.handlers.clear()
    pkg.addHandler(handler)
    pkg.setLevel(levels[name])
    pkg.propagate = False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="devex",
        description="Exact and bounded error exponents for binary hypothesis "
                    "testing on finite alphabets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--csv", action="store_true",
                       help="flatten results to key,value CSV instead of JSON")

    p = sub.add_parser("exponents", help="exact exponents and lower bounds")
    p.add_argument("pair_file")
    p.add_argument("--lambda-upper", type=float, default=0.0)
    p.add_argument("--lambda-lower", type=float, default=0.0)
    add_common(p)
    p.set_defaults(handler=cmd_exponents)

    p = sub.add_parser("bounds", help="concentration bounds for given (d, sigma^2)")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--sigma-sq", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--sided", choices=("one", "two"), default="one")
    add_common(p)
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("fisher", help="Fisher information limit ratios")
    p.add_argument("--family", choices=("bernoulli", "ternary"), required=True)
    p.add_argument("--alpha", type=float, default=None,
                   help="ternary family parameter in (0, 1)")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--offsets", default="0.01,0.005,0.0025",
                   help="comma list of probe offsets h")
    add_common(p)
    p.set_defaults(handler=cmd_fisher)

    p = sub.add_parser("simulate", help="Monte Carlo validation run")
    p.add_argument("pair_file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambda-upper", type=float, default=0.0)
    p.add_argument("--lambda-lower", type=float, default=0.0)
    p.add_argument("--pi1", type=float, default=0.5)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; trials run on one thread")
    add_common(p)
    p.set_defaults(handler=cmd_simulate)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except NoConvergence as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except DevexError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    emit(report, args.csv)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Reads hypothesis pairs from JSON files, runs the library, and emits a
machine-readable report on stdout:

    {"command": ..., "inputs": ..., "results": ...}

The inputs echo every parsed option except NOT_INPUTS, plus the pair file's
fields for the commands that read one; each handler returns the results.

Numbers stay numbers (shortest round-trip representation); infinities become
the string "inf" since JSON has none. Diagnostics go to stderr only, as
plain lines under DEVEX_LOG=info or debug, so the results stream stays pure
JSON (or CSV under --csv). Exit codes: 0 success, 2 input or validation
error, 3 internal numeric failure.
"""

from __future__ import annotations

import argparse
import json
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
from .fisher import RatioRow, bernoulli_family, limit_ratios, ternary_family
from .probdist import HypothesisPair, make_pmf

PAIR_FIELDS = ("alphabet", "p1", "p2")
# parsed arguments that a report does not echo as inputs: the subcommand and
# its handler shape the report, --csv only its format, and --threads is
# accepted but unused
NOT_INPUTS = ("command", "handler", "csv", "threads")


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
    return HypothesisPair(*pmfs), raw


def _pair_and_thresholds(args, inputs: dict, log):
    """Load the pair file, say so on the diagnostics channel, echo its
    fields among the inputs, and read the thresholds."""
    pair, raw = load_pair(args.pair_file)
    log(f"loaded pair from {args.pair_file}: {pair.size()} symbols")
    inputs.update((f, raw[f]) for f in PAIR_FIELDS)
    return pair, Thresholds(args.lambda_upper, args.lambda_lower)


def cmd_exponents(args, inputs: dict, log) -> dict:
    report = compare_report(*_pair_and_thresholds(args, inputs, log))
    results = {f"exact_{k}": v for k, v in report.exact._asdict().items()}
    for prefix, bounds in (("refined_lb", report.refined), ("azuma_lb", report.azuma)):
        results.update((f"{prefix}_{pe}", getattr(bounds, pe)) for pe in PE_EVENTS)
    for i in (1, 2):
        results[f"gamma{i}"] = report.gammas[i - 1]
        results[f"gamma_inv{i}"] = report.gamma_inv[i - 1]
    tables = {"refined_lb": report.refined.components,
              "azuma_lb": report.azuma.components, "epsilon": report.epsilons,
              "delta": report.deltas, "improvement": report.improvement}
    results.update((f"{prefix}_i{i}j{j}", value) for prefix, table in tables.items()
                   for (i, j), value in table.items())
    return results


def cmd_bounds(args, inputs: dict, log) -> dict:
    params = MartingaleParams(d=args.d, sigma_sq=args.sigma_sq)
    sided = ONE_SIDED if args.sided == "one" else TWO_SIDED
    delta = params.delta(args.alpha)
    refined = refined_bound(params, args.n, args.alpha, sided)
    # one jump d sqrt(n) has the same sum of squares as n jumps d, without
    # n rounded additions or an n-step loop; refined_bound has checked n
    azuma = azuma_bound((args.d * math.sqrt(args.n),), args.alpha * args.n)
    floor = quad_cubic_floor(delta, params.gamma) if delta <= 1.0 else None
    return {"azuma": azuma, "refined": refined, "delta": delta,
            "gamma": params.gamma, "quad_cubic_floor": floor}


def cmd_fisher(args, inputs: dict, log) -> dict:
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
    inputs["offsets"] = offsets
    report = limit_ratios(family, args.theta, offsets)
    # one list per RatioRow field, the offsets h under the name "offsets"
    results = dict(zip(("offsets", *RatioRow._fields[1:]),
                       map(list, zip(*report.rows))))
    results.update((k, v) for k, v in report._asdict().items()
                   if k not in ("theta", "rows"))
    return results


def cmd_simulate(args, inputs: dict, log) -> dict:
    # the only subcommand that needs numpy, so only it loads it
    from .montecarlo import SimConfig, exact_binary_tail, simulate_test

    if args.threads < 1:
        raise DomainError(f"threads = {args.threads} must be a positive integer")
    pair, th = _pair_and_thresholds(args, inputs, log)
    config = SimConfig(
        n=args.n,
        trials=args.trials,
        seed=args.seed,
        thresholds=th,
        priors=(args.pi1, 1.0 - args.pi1),
    )
    result = simulate_test(pair, config)
    log(f"simulated {args.trials} trials per hypothesis at n={args.n} "
        "on one thread")
    exact = None
    if pair.size() == 2:
        tails = exact_binary_tail(pair, args.n, th)
        pi1, pi2 = config.priors
        exact = dict(tails._asdict(), **{
            pe: pi1 * getattr(tails, a) + pi2 * getattr(tails, b)
            for pe, (a, b) in PE_EVENTS.items()})
    return {
        **{k: getattr(result, k)._asdict() for k in (*EVENTS, *PE_EVENTS)},
        "counts": dict(result.counts),
        "exact": exact,
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


def _diagnostics():
    """The stderr channel of one main() call, from DEVEX_LOG: at info or
    debug each message is an "INFO devex.cli: <message>" line on the
    sys.stderr of that moment; at error, the default, nothing is written."""
    level = os.environ.get("DEVEX_LOG", "error").strip().lower()
    if level in ("info", "debug"):
        return lambda message: print(f"INFO devex.cli: {message}", file=sys.stderr)
    if level != "error":
        print(f"warning: DEVEX_LOG={level!r} not one of error/info/debug",
              file=sys.stderr)
    return lambda message: None


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
    log = _diagnostics()
    args = build_parser().parse_args(argv)
    inputs = {k: v for k, v in vars(args).items() if k not in NOT_INPUTS}
    try:
        report = {"command": args.command, "inputs": inputs,
                  "results": args.handler(args, inputs, log)}
    except DevexError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3 if isinstance(e, NoConvergence) else 2
    emit(report, args.csv)
    return 0


if __name__ == "__main__":
    sys.exit(main())

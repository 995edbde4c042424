"""Command-line surface: solve one instance, sweep a grid, run the two
verification suites, and summarize saved sweep outputs.

Exit codes: 0 when every requested check passed, 1 when a check failed,
2 on usage errors (bad flags, unreadable files, infeasible parameters).
"""
from __future__ import annotations

import argparse
import csv
import json
import sys

from .core import InstanceError, SeededRng, load_instance
from .polylab import POLY_SUITES, run_poly_suite
from .subspace import verify_suite
from .sweep import (
    RUN_MODES,
    SweepConfig,
    emit_report,
    fit_scaling,
    rows_from_csv,
    rows_from_json,
    run_product,
    run_sweep,
)


def _print_lines(lines) -> bool:
    """Print one pass/fail line per check; return True when all passed."""
    ok = True
    for line in lines:
        status = "PASS" if line.passed else "FAIL"
        detail = f"  ({line.detail})" if line.detail else ""
        print(f"[{status}] {line.name}: residual={line.residual:.6g}{detail}")
        ok = ok and line.passed
    return ok


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    result = run_product(instance, args.space, args.mode, SeededRng(args.seed).spawn("solve", args.mode))
    ledger = result.ledger
    payload = {
        "N": result.n,
        "t": result.t,
        "S": args.space,
        "mode": args.mode,
        "seed": args.seed,
        "correct": result.correct,
        "queries_x": ledger.queries_x,
        "queries_b": ledger.queries_b,
        "space_high_water": ledger.space_high_water,
        "per_subroutine": dict(sorted(ledger.by_subroutine.items())),
    }
    print(json.dumps(payload))
    return 0 if result.correct else 1


def _cmd_sweep(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        config = SweepConfig.from_dict(json.load(fh))
    out_path = args.out or config.out
    if not out_path:
        raise InstanceError("no output path: pass --out or set 'out' in the config")
    result = run_sweep(config)
    emit_report(result.rows, args.format, out_path)
    print(f"wrote {len(result.rows)} rows to {out_path} ({args.format})")
    for message in result.errors:
        print(f"cell failed: {message}", file=sys.stderr)
    return 1 if result.errors else 0


def _cmd_subspace(args) -> int:
    lines = verify_suite(
        args.n, args.t, args.k, seed=args.seed, runs=args.runs, depth=args.depth
    )
    ok = _print_lines(lines)
    if args.json:
        with open(args.json, "w", encoding="utf-8", newline="\n") as fh:
            json.dump([line.to_dict() for line in lines], fh, indent=2)
            fh.write("\n")
    return 0 if ok else 1


def _cmd_poly(args) -> int:
    lines, rows = run_poly_suite(args.suite)
    ok = _print_lines(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            if rows:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
                writer.writeheader()
                writer.writerows(rows)
    return 0 if ok else 1


def _cmd_report(args) -> int:
    with open(args.path, encoding="utf-8") as fh:
        text = fh.read()
    rows = rows_from_json(text) if args.path.lower().endswith(".json") else rows_from_csv(text)
    total = len(rows)
    correct = sum(1 for row in rows if row.correct)
    print(f"rows: {total}")
    if total == 0:
        return 0
    print(f"correct: {correct}/{total}")
    regimes = sorted({row.regime for row in rows})
    for regime in regimes:
        count = sum(1 for row in rows if row.regime == regime)
        print(f"regime {regime}: {count} rows")
    for mode, t, s in sorted({(row.mode, row.t, row.s) for row in rows}):
        sub = [row for row in rows if (row.mode, row.t, row.s) == (mode, t, s)]
        if len({row.n for row in sub}) >= 3:
            try:
                fit = fit_scaling(sub, "N")
                exponent = f"{fit.exponent:.3f} +- {fit.halfwidth:.3f}"
            except ValueError as exc:   # a median T of 0
                exponent = f"undefined ({exc})"
            print(f"mode {mode} t={t} S={s}: N-exponent {exponent}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ineqlab",
        description="Space-bounded matrix-vector products and their verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one instance and print a JSON summary")
    p_solve.add_argument("--instance", required=True, help="instance file path")
    p_solve.add_argument("--space", required=True, type=int, help="space budget S")
    p_solve.add_argument("--mode", required=True, choices=RUN_MODES)
    p_solve.add_argument("--seed", required=True, type=int)
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep from a JSON config")
    p_sweep.add_argument("--config", required=True, help="JSON config file")
    p_sweep.add_argument("--out", help="output path (falls back to config 'out')")
    p_sweep.add_argument("--format", default="csv", choices=("csv", "json"))
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sub = sub.add_parser("subspace", help="signed-subspace verification suite")
    sub_sub = p_sub.add_subparsers(dest="subcommand", required=True)
    p_sub_verify = sub_sub.add_parser("verify", help="run the suite at one (n, t, k)")
    p_sub_verify.add_argument("--n", required=True, type=int)
    p_sub_verify.add_argument("--t", required=True, type=int)
    p_sub_verify.add_argument("--k", required=True, type=int)
    p_sub_verify.add_argument("--seed", type=int, default=0)
    p_sub_verify.add_argument("--runs", type=int, default=10)
    p_sub_verify.add_argument("--depth", type=int, default=3)
    p_sub_verify.add_argument("--json", help="also dump the lines as JSON to this path")
    p_sub_verify.set_defaults(func=_cmd_subspace)

    p_poly = sub.add_parser("poly", help="polynomial verification suites")
    poly_sub = p_poly.add_subparsers(dest="subcommand", required=True)
    p_poly_verify = poly_sub.add_parser("verify", help="run one suite")
    p_poly_verify.add_argument("--suite", required=True, choices=sorted(POLY_SUITES))
    p_poly_verify.add_argument("--out", help="dump the suite's table as CSV to this path")
    p_poly_verify.set_defaults(func=_cmd_poly)

    p_report = sub.add_parser("report", help="summarize a saved sweep output")
    p_report.add_argument("--in", dest="path", required=True, help="sweep CSV or JSON")
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

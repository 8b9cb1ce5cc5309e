"""Command-line driver: run benchmarks, verify identities, emit tables.

Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .adaptive import AdaptiveConfig, _fmt, identity_rows, run_adaptive
from .forms import SingularSystemError
from .problems import get_problem

USAGE_ERROR = 1
NUMERICAL_ERROR = 2


def _positive_int(text):
    """argparse type for counts (levels, seeds, iterations): an int >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _nonnegative_int(text):
    """argparse type for seeds: an int >= 0 (numpy rejects negative seeds)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _positive_float(text):
    """argparse type for thresholds: a finite float > 0 (nan is rejected)."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and above 0, got {value}")
    return value


def _write_report(write, path):
    """Call write(path): True on success, an error message and False if not."""
    try:
        write(path)
    except OSError as exc:
        print(f"error: cannot write report {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    print(f"report written to {path}")
    return True


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gapfem",
        description="Primal-dual gap error estimation benchmarks "
        "(Stokes / linear elasticity, Crouzeix-Raviart + Raviart-Thomas).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a benchmark problem")
    run.add_argument("problem", help="taylor-green, lshape, or cook")
    run.add_argument("--mode", choices=["uniform", "adaptive"], default="adaptive")
    run.add_argument("--theta", type=float, default=0.5)
    run.add_argument("--max-iter", type=_positive_int, default=10)
    run.add_argument("--eps-stop", type=float, default=0.0)
    run.add_argument("--out", default=None, help="report file path")
    run.add_argument("--format", choices=["csv", "json"], default="csv")

    ver = sub.add_parser("verify-identity", help="randomized Prager-Synge check")
    ver.add_argument("--problem", default="taylor-green")
    ver.add_argument("--levels", type=_positive_int, default=6)
    ver.add_argument("--seeds", type=_positive_int, default=3)
    ver.add_argument("--seed", type=_nonnegative_int, default=0, help="seed offset")
    ver.add_argument("--threshold", type=_positive_float, default=1e-6)
    ver.add_argument("--out", default=None)
    ver.add_argument("--format", choices=["csv", "json"], default="csv")
    ver.add_argument(
        "--debug-tamper",
        action="store_true",
        help="inject a non-admissible perturbation (negative test)",
    )

    tab = sub.add_parser("table1", help="uniform Taylor-Green error table")
    tab.add_argument("--max-iter", type=_positive_int, default=4,
                     help="number of levels")
    tab.add_argument("--out", default=None)
    return parser


def cmd_run(args):
    try:
        problem = get_problem(args.problem)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        config = AdaptiveConfig(
            theta=args.theta,
            max_iter=args.max_iter,
            eps_stop=args.eps_stop,
            refinement_mode=args.mode,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        report = run_adaptive(problem, config)
    except SingularSystemError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    rows = report.csv_rows()
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    if args.out:
        write = report.to_csv if args.format == "csv" else report.to_json
        if not _write_report(write, args.out):
            return USAGE_ERROR
    return 0


def cmd_verify_identity(args):
    try:
        problem = get_problem(args.problem)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if problem.kind != "stokes":
        print("error: verify-identity requires a Stokes problem", file=sys.stderr)
        return USAGE_ERROR
    try:
        rows = identity_rows(
            problem, args.levels, args.seeds, args.seed, tamper=args.debug_tamper
        )
    except SingularSystemError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    header = ["level", "sample", "num_dof", "rho_primal", "rho_dual", "gap", "err_iden"]
    lines = [",".join(header)]
    for r in rows:
        lines.append(
            ",".join(
                [str(r["level"]), str(r["sample"]), str(r["num_dof"])]
                + [_fmt(r[k]) for k in ("rho_primal", "rho_dual", "gap")]
                + [f"{r['err_iden']:.6e}"]
            )
        )
    for line in lines:
        print(line)
    if args.out:
        if args.format == "csv":
            text = "\n".join(lines) + "\n"
        else:
            text = json.dumps(rows, indent=2, default=float) + "\n"
        if not _write_report(lambda path: Path(path).write_text(text), args.out):
            return USAGE_ERROR
    worst = max(r["err_iden"] for r in rows)
    print(f"worst relative identity error: {worst:.3e} (threshold {args.threshold:.1e})")
    if not np.isfinite(worst) or worst > args.threshold:
        print("identity check FAILED", file=sys.stderr)
        return NUMERICAL_ERROR
    print("identity check passed")
    return 0


def cmd_table1(args):
    problem = get_problem("taylor-green")
    config = AdaptiveConfig(refinement_mode="uniform", max_iter=args.max_iter)
    try:
        report = run_adaptive(problem, config)
    except SingularSystemError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    lines = ["num_dof,err_u,eoc_u,err_T,eoc_T"]
    for k, r in enumerate(report.records):
        cells = [str(r.num_dof)]
        for name in ("err_primal", "err_dual"):
            rate = _fmt(report.eoc[name][k - 1]) if k else "-"
            cells += [_fmt(r.errors[name]), rate]
        lines.append(",".join(cells))
    for line in lines:
        print(line)
    text = "\n".join(lines) + "\n"
    if args.out and not _write_report(lambda path: Path(path).write_text(text), args.out):
        return USAGE_ERROR
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    if args.command == "run":
        return cmd_run(args)
    if args.command == "verify-identity":
        return cmd_verify_identity(args)
    if args.command == "table1":
        return cmd_table1(args)
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

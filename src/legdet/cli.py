"""Command-line front end.

    legdet verify --what theorem-a,corollary-a --pmax 100 --format json
    legdet det --matrix s --p 13 --d 1
    legdet eigen --p 13 --exact
"""

from __future__ import annotations

import argparse
import json
import sys

from . import charsums
from .exactla import det_affine, det_exact
from .harness import CHECK_IDS, CHECKS, RunConfig, check_precision_bits, run
from .matrices import carlitz_matrix, chapman_matrix, evil_matrix
from .ntcore import PrimeCtx


def _pmax_help() -> str:
    """The --pmax help, with each check's default ceiling from the registry."""
    by_pmax: dict[int, list[str]] = {}
    for check in CHECKS.values():
        by_pmax.setdefault(check.pmax, []).append(check.id)
    common = max(by_pmax, key=lambda pmax: len(by_pmax[pmax]))
    others = "; ".join(f"{pmax} for {', '.join(ids)}"
                       for pmax, ids in by_pmax.items() if pmax != common)
    return f"largest prime; defaults to {common} ({others})"


def _parse_args(argv):
    top = argparse.ArgumentParser(prog="legdet")
    sub = top.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run identity checks over a prime range")
    v.add_argument("--what", default="all",
                   help="comma-separated check ids, or 'all' (default)")
    v.add_argument("--pmax", type=int, default=None, help=_pmax_help())
    v.add_argument("--d", default=None,
                   help="comma-separated d values for the d-indexed checks")
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--format", choices=("json", "csv", "text"), default="text")
    v.add_argument("--cache", default=None, help="JSONL result cache path")
    v.add_argument("--precision-bits", type=int, default=128)
    v.add_argument("--full-d-sweep", action="store_true",
                   help="run every d in 0..p-1 (quadratic blowup)")

    d = sub.add_parser("det", help="print one exact determinant or polynomial")
    d.add_argument("--matrix", required=True,
                   choices=("s", "sstar", "carlitz", "chapman", "chapman-star", "evil"))
    d.add_argument("--p", type=int, required=True)
    d.add_argument("--d", type=int, default=1)

    e = sub.add_parser("eigen", help="print the eigenvalue report for one prime")
    e.add_argument("--p", type=int, required=True)
    e.add_argument("--exact", action="store_true",
                   help="force exact cyclotomic mode regardless of size")
    e.add_argument("--precision-bits", type=int, default=128)

    return top.parse_args(argv)


def _cmd_verify(args) -> int:
    if args.what == "all":
        checks = CHECK_IDS
    else:
        checks = tuple(c.strip() for c in args.what.split(",") if c.strip())
        unknown = [c for c in checks if c not in CHECK_IDS]
        if unknown:
            print(f"unknown checks: {', '.join(unknown)}", file=sys.stderr)
            return 2
    if args.jobs < 1:
        print(f"--jobs must be at least 1, not {args.jobs}", file=sys.stderr)
        return 2
    d_list = None
    if args.d:
        d_list = [int(x) for x in args.d.split(",")]
    config = RunConfig(
        checks=checks,
        pmax=args.pmax,
        d_list=d_list,
        jobs=args.jobs,
        fmt=args.format,
        cache_path=args.cache,
        precision_bits=args.precision_bits,
        full_d_sweep=args.full_d_sweep,
    )
    return run(config)


def _cmd_det(args) -> int:
    ctx = PrimeCtx.for_prime(args.p)
    if args.matrix == "s":
        print(charsums.det_squares(ctx, args.d))
    elif args.matrix == "sstar":
        print(charsums.det_squares_star(ctx))
    elif args.matrix == "carlitz":
        print(det_exact(carlitz_matrix(ctx)))
    elif args.matrix == "evil":
        print(det_exact(evil_matrix(ctx)))
    else:
        star = args.matrix == "chapman-star"
        print(det_affine(chapman_matrix(ctx, star)))
    return 0


def _cmd_eigen(args) -> int:
    ctx = PrimeCtx.for_prime(args.p)
    exact = True if args.exact else None
    report = charsums.eigen_verify(ctx, exact=exact, prec_bits=args.precision_bits)
    for row in report.rows():
        print(json.dumps(row, separators=(",", ":")))
    return 0 if report.ok else 1


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    if args.command != "det":
        try:
            check_precision_bits(args.precision_bits, "--precision-bits")
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "det":
            return _cmd_det(args)
        return _cmd_eigen(args)
    except (ValueError, ArithmeticError, ChildProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

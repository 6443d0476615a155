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
from .exactla import chapman_dets, evil_det
from .harness import CHECK_IDS, CHECKS, RunConfig, run
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
    reads_d = ", ".join(check.id for check in CHECKS.values() if check.d_symbols is not None)
    v.add_argument("--d", default=None, metavar="LIST|all",
                   help=f"comma-separated d values for {reads_d}, or 'all' for every d "
                        "in 0..p-1; defaults to 1, 2, 3, 5, p-1 and 8 more per prime")
    v.add_argument("--jobs", type=int, default=1, metavar="K",
                   help="fork at most K worker processes, and no more than the "
                        "usable CPUs, once the run can pay for the fork; the "
                        "output is the same")
    v.add_argument("--format", choices=("json", "csv", "text"), default="text",
                   help="output format (default: text)")
    v.add_argument("--cache", default=None, help="JSONL result cache path")

    d = sub.add_parser("det", help="print one exact determinant or polynomial")
    d.add_argument("--matrix", required=True,
                   choices=("s", "sstar", "carlitz", "chapman", "chapman-star", "evil"),
                   help="S(d,p), S*(p), det of Carlitz's matrix, det C(x), det C*(x) "
                        "or Chapman's evil determinant")
    d.add_argument("--p", type=int, required=True, help="an odd prime")
    d.add_argument("--d", type=int, default=1,
                   help="the d of S(d,p) (default: 1); only --matrix s reads it")

    e = sub.add_parser("eigen", help="print the eigenvalue report for one prime")
    e.add_argument("--p", type=int, required=True, help="a prime p = 1 (mod 4)")
    e.add_argument("--exact", action="store_true",
                   help="force exact cyclotomic mode regardless of size")

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
    d_list = args.d or None
    if d_list and d_list != "all":
        d_list = [int(x) for x in d_list.split(",")]
    config = RunConfig(
        checks=checks,
        pmax=args.pmax,
        d_list=d_list,
        jobs=args.jobs,
        fmt=args.format,
        cache_path=args.cache,
    )
    return run(config)


def _cmd_det(args) -> int:
    ctx = PrimeCtx.for_prime(args.p)
    if args.matrix == "s":
        print(charsums.det_squares(ctx, args.d))
    elif args.matrix == "sstar":
        print(charsums.det_squares_star(ctx))
    elif args.matrix == "carlitz":
        # det(xI - C) at x = 0 is det(-C) = det C, since C has even dimension p - 1
        print(charsums.carlitz_char_poly(ctx).coeffs[0])
    elif args.matrix == "evil":
        print(evil_det(ctx))
    else:
        print(chapman_dets(ctx)[args.matrix == "chapman-star"])
    return 0


def _cmd_eigen(args) -> int:
    ctx = PrimeCtx.for_prime(args.p)
    exact = True if args.exact else None
    report = charsums.eigen_verify(ctx, exact=exact)
    for row in report.rows():
        print(json.dumps(row, separators=(",", ":")))
    return 0 if report.ok else 1


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "det":
            return _cmd_det(args)
        return _cmd_eigen(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

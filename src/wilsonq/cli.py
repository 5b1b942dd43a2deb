"""Command-line interface.

Subcommands:
  verify     sweep a prime range and report check results (exit 0/1/2)
  bernoulli  one divided Bernoulli value modulo p^r
  wilson     factorial, Wilson quotient and base-p digits for one prime
  omega      the expansion-coefficient ladder for one prime
"""
from __future__ import annotations

import argparse
import sys

from .bernoulli import bnpd
from .formulas import omega_vector
from .harness import CHECK_TAGS, RunConfig, run_and_report
from .oracles import wilson_quotient
from .residues import is_prime, make_modulus


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wilsonq",
        description=(
            "Wilson quotients and Fermat-quotient power sums modulo high prime "
            "powers, computed by brute force and by Bernoulli-number formulas, "
            "with bit-exact cross-verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="sweep a prime range and verify all selected checks")
    v.add_argument("--pmin", type=int, required=True, help="lower end of the prime range")
    v.add_argument("--pmax", type=int, required=True, help="upper end of the prime range")
    v.add_argument(
        "--checks",
        default="all",
        help=f"comma-separated tags or 'all' (tags: {', '.join(sorted(CHECK_TAGS))})",
    )
    v.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    v.add_argument("--format", dest="fmt", choices=["json", "csv", "text"], default="text")
    v.add_argument("--out", default=None, help="report path (default: stdout)")

    b = sub.add_parser("bernoulli", help="print a divided Bernoulli value mod p^r")
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--m", type=int, required=True, help="index of the divided value")
    b.add_argument("--prec", type=int, required=True, help="precision exponent r")

    w = sub.add_parser("wilson", help="print (p-1)!, the Wilson quotient and digits")
    w.add_argument("--p", type=int, required=True)
    w.add_argument("--prec", type=int, required=True, help="precision exponent r")

    o = sub.add_parser("omega", help="print the factorial expansion coefficients")
    o.add_argument("--p", type=int, required=True)
    o.add_argument("--thm", type=int, choices=[1, 2], required=True,
                   help="1: five coefficients (p>=7); 2: six (p>=11)")
    return parser


def _cmd_verify(args, parser) -> int:
    if args.checks.strip() == "all":
        checks = CHECK_TAGS
    else:
        checks = frozenset(t.strip() for t in args.checks.split(",") if t.strip())
        unknown = checks - CHECK_TAGS
        if unknown or not checks:
            parser.error(f"unknown checks: {sorted(unknown) or args.checks!r}")
    try:
        cfg = RunConfig(
            pmin=args.pmin, pmax=args.pmax, checks=checks,
            jobs=args.jobs, fmt=args.fmt, out=args.out,
        )
    except ValueError as exc:
        parser.error(str(exc))
    return run_and_report(cfg)


def _cmd_bernoulli(args, parser) -> int:
    if not is_prime(args.p):
        parser.error(f"{args.p} is not prime")
    value = bnpd(args.m, make_modulus(args.p, args.prec))
    print(value.value)
    return 0


def _cmd_wilson(args, parser) -> int:
    if not is_prime(args.p):
        parser.error(f"{args.p} is not prime")
    record = wilson_quotient(args.p, args.prec)
    print(f"(p-1)! mod p^{args.prec + 1} = {record.factorial.value}")
    print(f"W_p mod p^{args.prec}    = {record.quotient.value}")
    print(f"base-{args.p} digits     = {list(record.digits)}")
    return 0


def _cmd_omega(args, parser) -> int:
    if not is_prime(args.p):
        parser.error(f"{args.p} is not prime")
    from .bernoulli import divided_set

    depth = 5 if args.thm == 1 else 6
    try:
        omega = omega_vector(args.p, divided_set(args.p), depth=depth)
    except ValueError as exc:
        parser.error(str(exc))
    for nu, w in enumerate(omega.omegas):
        print(
            f"omega[{nu}] mod p^{w.precision} = {w.value}"
            f"  (base-{args.p} digits {w.digits()})"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": _cmd_verify,
        "bernoulli": _cmd_bernoulli,
        "wilson": _cmd_wilson,
        "omega": _cmd_omega,
    }
    try:
        return handlers[args.command](args, parser)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

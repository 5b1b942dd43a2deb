"""Command-line interface.

Subcommands:
  verify     sweep a prime range and report check results (exit 0/1/2)
  bernoulli  one divided Bernoulli value modulo p^r
  wilson     factorial, Wilson quotient and base-p digits for one prime
  omega      the expansion-coefficient ladder for one prime
  kummer     every Kummer difference from the even starts up to a bound (exit 0/1/2)
"""
from __future__ import annotations

import argparse
import sys

from .bernoulli import MIN_P, BernoulliEngine, bnpd, divided_set, kummer_differences
from .formulas import omega_vector
from .harness import CHECK_TAGS, RunConfig, run_and_report
from .oracles import wilson_quotient
from .residues import P_LIMIT, make_modulus


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
    v.add_argument("--pmax", type=int, required=True,
                   help=f"upper end of the prime range, at most {P_LIMIT}")
    v.add_argument(
        "--checks",
        default="all",
        help=f"comma-separated tags or 'all' (tags: {', '.join(sorted(CHECK_TAGS))})",
    )
    v.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    v.add_argument("--format", dest="fmt", choices=["json", "csv", "text"], default="text")
    v.add_argument("--out", default=None, help="report path (default: stdout)")
    v.set_defaults(handler=_cmd_verify)

    b = sub.add_parser("bernoulli", help="print a divided Bernoulli value mod p^r")
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--m", type=int, required=True, help="index m >= 1 of the divided value")
    b.add_argument("--prec", type=int, required=True, help="precision exponent r")
    b.set_defaults(handler=_cmd_bernoulli)

    w = sub.add_parser("wilson", help="print (p-1)!, the Wilson quotient and digits")
    w.add_argument("--p", type=int, required=True)
    w.add_argument("--prec", type=int, required=True, help="precision exponent r")
    w.set_defaults(handler=_cmd_wilson)

    o = sub.add_parser("omega", help="print the factorial expansion coefficients")
    o.add_argument("--p", type=int, required=True)
    o.add_argument("--depth", type=int, choices=sorted(MIN_P), required=True,
                   help="; ".join(f"{d}: omega_0..omega_{d} (p>={p})" for d, p in MIN_P.items()))
    o.set_defaults(handler=_cmd_omega)

    k = sub.add_parser("kummer", help="check Kummer's congruences from every even start")
    k.add_argument("--primes", type=int, nargs="+", required=True)
    k.add_argument("--nmax", type=int, required=True,
                   help=f"last even start n, 2 <= n <= {P_LIMIT}; every two starts cost one "
                        "column table and one pass over the p-1 values (about 7 s for 100 "
                        "starts at p = 262139)")
    k.add_argument("--rmax", type=int, required=True, help="top difference order r >= 1")
    k.set_defaults(handler=_cmd_kummer)
    return parser


def _cmd_verify(args) -> int:
    if args.checks.strip() == "all":
        checks = CHECK_TAGS
    else:
        checks = frozenset(t.strip() for t in args.checks.split(",") if t.strip())
    cfg = RunConfig(
        pmin=args.pmin, pmax=args.pmax, checks=checks,
        jobs=args.jobs, fmt=args.fmt, out=args.out,
    )
    return run_and_report(cfg)


def _cmd_bernoulli(args) -> int:
    if args.m < 1:
        raise ValueError(f"index must be >= 1, where B_m/m is defined; got {args.m}")
    value = bnpd(args.m, make_modulus(args.p, args.prec))
    print(value.value)
    return 0


def _cmd_wilson(args) -> int:
    record = wilson_quotient(args.p, args.prec)
    print(f"(p-1)! mod p^{args.prec + 1} = {record.factorial.value}")
    print(f"W_p mod p^{args.prec}    = {record.quotient.value}")
    print(f"base-{args.p} digits     = {record.factorial.digits()}")
    return 0


def _cmd_omega(args) -> int:
    for nu, w in enumerate(omega_vector(args.p, divided_set(args.p), args.depth)):
        print(
            f"omega[{nu}] mod p^{w.precision} = {w.value}"
            f"  (base-{args.p} digits {w.digits()})"
        )
    return 0


def _cmd_kummer(args) -> int:
    if args.rmax < 1 or args.nmax < 2:
        raise ValueError("need --rmax >= 1 and --nmax >= 2, or nothing is checked")
    if args.nmax > P_LIMIT:
        raise ValueError(f"--nmax must be at most P_LIMIT = {P_LIMIT}, got {args.nmax}")
    failures = 0
    for p in args.primes:
        found = kummer_differences(p, BernoulliEngine(p),
                                   ((n, args.rmax) for n in range(2, args.nmax + 1, 2)))
        for r, n, diff in found:
            if diff.value:
                failures += 1
                print(f"FAIL p={p} r={r} n={n}: {diff.value} mod {p}^{r}")
        print(f"p={p}: {len(found)} differences vanish")
    print(f"{failures} FAILURES" if failures else "zero failures")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Dense scan of the higher-order congruences of divided Bernoulli numbers.

For each prime and difference order r, walks every admissible even index up
to a bound and confirms the r-fold forward difference (step p-1) vanishes
modulo p^r.  The harness check takes only the divided set's own families;
this reaches every start, for poking at larger index ranges.  Input that
checks nothing (an order below 1, or no even index from 2 to --nmax) or that
the engine refuses (a non-prime, or an index whose working precision reaches
p) exits 2 with one ``error:`` line.

    python scripts/kummer_scan.py --primes 7 11 13 17 19 --nmax 400 --rmax 3
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wilsonq.bernoulli import BernoulliEngine, kummer_differences


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", type=int, nargs="+", default=[7, 11, 13, 17])
    parser.add_argument("--nmax", type=int, default=200)
    parser.add_argument("--rmax", type=int, default=3)
    args = parser.parse_args()
    if args.rmax < 1 or args.nmax < 2:
        print("error: need --rmax >= 1 and --nmax >= 2, or nothing is checked", file=sys.stderr)
        return 2

    failures = 0
    started = time.perf_counter()
    try:
        for p in args.primes:
            found = kummer_differences(p, BernoulliEngine(p),
                                       ((n, args.rmax) for n in range(2, args.nmax + 1, 2)))
            for r, n, diff in found:
                if diff.value:
                    failures += 1
                    print(f"FAIL p={p} r={r} n={n}: {diff.value} mod {p}^{r}")
            print(f"p={p}: {len(found)} differences vanish")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{'zero failures' if not failures else f'{failures} FAILURES'} "
          f"({time.perf_counter() - started:.1f}s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

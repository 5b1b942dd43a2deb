#!/usr/bin/env python3
"""Dense scan of the higher-order congruences of divided Bernoulli numbers.

For each prime and difference order r, walks every admissible even index up
to a bound and confirms the r-fold forward difference (step p-1) vanishes
modulo p^r.  Denser than the sampled harness check; useful for poking at
larger index ranges.

    python scripts/kummer_scan.py --primes 7 11 13 17 19 --nmax 400 --rmax 3
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wilsonq.bernoulli import bnpd, clear_caches, kummer_admissible
from wilsonq.differences import forward_difference
from wilsonq.residues import make_modulus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", type=int, nargs="+", default=[7, 11, 13, 17])
    parser.add_argument("--nmax", type=int, default=200)
    parser.add_argument("--rmax", type=int, default=3)
    args = parser.parse_args()

    failures = 0
    started = time.perf_counter()
    for p in args.primes:
        h = p - 1
        count = 0
        for r in range(1, args.rmax + 1):
            modulus = make_modulus(p, r)
            for n in range(2, args.nmax + 1, 2):
                if not kummer_admissible(p, r, n):
                    continue
                diff = forward_difference(lambda nu: bnpd(nu, modulus), h, r, start=n)
                count += 1
                if not diff.is_zero():
                    failures += 1
                    print(f"FAIL p={p} r={r} n={n}: {diff.value} mod {p}^{r}")
        print(f"p={p}: {count} differences vanish")
        clear_caches()
    print(f"{'zero failures' if not failures else f'{failures} FAILURES'} "
          f"({time.perf_counter() - started:.1f}s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

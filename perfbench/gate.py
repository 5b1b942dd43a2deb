"""Correctness gate for one `verify --format json` report.

Every requested tag must have at least one row, or a skip marker, for every
prime in the range; every row must pass with equal sides; and for a few
seed-chosen primes the benchmark recomputes the brute-force side of the
factorial and power-sum rows itself.  Nothing here imports the program.
"""
from __future__ import annotations

from dataclasses import dataclass, field


def primes_in(pmin: int, pmax: int) -> list[int]:
    """Ascending primes in [pmin, pmax] by trial division (ranges are small)."""
    out = []
    for n in range(max(pmin, 2), pmax + 1):
        if all(n % q for q in range(2, int(n**0.5) + 1)):
            out.append(n)
    return out


def factorial_mod(p: int, r: int) -> int:
    m = p**r
    acc = 1
    for v in range(2, p):
        acc = acc * v % m
    return acc


def qtilde(n: int, p: int, r: int) -> int:
    """(p^(n-1)/n) * sum_a q_p(a)^n mod p^r, with q_p(a) = (a^(p-1)-1)/p."""
    low = p ** (r - n + 1)
    total = sum(pow((pow(a, p - 1, p * low) - 1) // p, n, low) for a in range(1, p)) % low
    m = p**r
    return pow(n, -1, m) * p ** (n - 1) * total % m


def spot_values(p: int, tags) -> dict[tuple[str, str], str]:
    """(tag, case) -> expected left-hand side for the rows of prime p that
    the benchmark recomputes independently."""
    out = {}
    if "thm1" in tags:
        out[("thm1", "factorial-mod-p^6")] = str(factorial_mod(p, 6))
    if "thm2" in tags and p >= 11:
        out[("thm2", "factorial-mod-p^7")] = str(factorial_mod(p, 7))
    if "thm3" in tags:
        for level in ([5, 6] if p >= 11 else [5]):
            for n in range(1, level + 1):
                out[("thm3", f"n={n}-mod-p^{level}")] = str(qtilde(n, p, level))
    return out


@dataclass
class Verdict:
    """Rows attempted and failed, with the first few reasons for failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, *problems: str) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems[: max(0, 20 - len(self.problems))])


def check_report(rows, primes, tags, spot: dict[int, dict] | None = None) -> Verdict:
    """Score a parsed report.  A missing (prime, tag) pair counts as one
    attempted and failed row; so does a row for a prime or tag not asked for."""
    verdict = Verdict()
    wanted = set(tags)
    prime_set = set(primes)
    groups: dict[tuple[int, str], list[dict]] = {}
    for row in rows:
        key = (row.get("p"), row.get("tag"))
        if key[0] not in prime_set or key[1] not in wanted:
            verdict.add(1, 1, f"unexpected row {key}")
            continue
        groups.setdefault(key, []).append(row)
    for p in primes:
        expected = dict((spot or {}).get(p, {}))
        for tag in tags:
            found = groups.get((p, tag))
            if not found:
                verdict.add(1, 1, f"p={p} {tag}: no row and no skip marker")
                continue
            for row in found:
                want = expected.pop((tag, row.get("case")), None)
                if row.get("pass") is not True or row.get("lhs") != row.get("rhs"):
                    verdict.add(1, 1, f"p={p} {tag}/{row.get('case')}: failed row")
                elif want is not None and row["lhs"] != want:
                    verdict.add(1, 1, f"p={p} {tag}/{row['case']}: lhs differs from the benchmark's value")
                else:
                    verdict.add(1, 0)
        for tag, case in expected:
            if (p, tag) in groups:  # a wholly missing tag is counted above
                verdict.add(1, 1, f"p={p} {tag}/{case}: spot-checked row missing")
    return verdict

"""Prime-range verification harness.

Per prime, a shared bundle of expensive artifacts (the divided-Bernoulli set,
coefficient ladders, Fermat-quotient tables) is built once and reused by all
selected checks.  Primes are independent units of work, so the sweep is
embarrassingly parallel; results are collected in prime order and are
byte-identical for any worker count.
"""
from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import formulas, oracles
from .bernoulli import DividedBernoulliSet, bnpd, divided_set, kummer_admissible
from .differences import forward_difference
from .residues import Residue, make_modulus
from .results import CheckResult

#: Check tags in canonical run order, with the smallest prime each applies to.
CHECK_ORDER: tuple[tuple[str, int], ...] = (
    ("thm1", 7),
    ("thm2", 11),
    ("thm3", 7),
    ("props", 7),
    ("lemmas", 7),
    ("psi", 3),
    ("kummer", 7),
    ("zero-exprs", 7),
    ("table3", 7),
)
CHECK_TAGS = frozenset(tag for tag, _ in CHECK_ORDER)
CHECK_MIN_P = dict(CHECK_ORDER)

#: Even indices sampled by the kummer check (the windows reach a bit higher).
KUMMER_SAMPLE = (4, 10, 16, 22, 34, 50, 98, 124, 156, 178, 200)
KUMMER_MAX_ORDER = 3


@dataclass(frozen=True)
class RunConfig:
    pmin: int
    pmax: int
    checks: frozenset[str] = CHECK_TAGS
    jobs: int = 1
    fmt: str = "text"
    out: str | None = None

    def __post_init__(self):
        if self.pmin > self.pmax:
            raise ValueError(f"empty range: pmin={self.pmin} > pmax={self.pmax}")
        if self.pmin < 2:
            raise ValueError("pmin must be >= 2")
        unknown = self.checks - CHECK_TAGS
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.fmt not in ("json", "csv", "text"):
            raise ValueError(f"unknown format: {self.fmt}")


def enumerate_primes(pmin: int, pmax: int) -> list[int]:
    """Ascending primes in [pmin, pmax] by sieve."""
    if pmin < 2:
        raise ValueError("pmin must be >= 2")
    if pmin > pmax:
        raise ValueError("pmin must not exceed pmax")
    sieve = bytearray([1]) * (pmax + 1)
    sieve[0:2] = b"\x00\x00"
    for q in range(2, int(pmax**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = b"\x00" * len(sieve[q * q :: q])
    return [n for n in range(pmin, pmax + 1) if sieve[n]]


class PrimeRun:
    """Lazily built shared state for one prime's checks."""

    def __init__(self, p: int):
        self.p = p
        self._bset: DividedBernoulliSet | None = None
        self._omega5 = None
        self._omega6 = None

    @property
    def bset(self) -> DividedBernoulliSet:
        if self._bset is None:
            self._bset = divided_set(self.p)
        return self._bset

    @property
    def omega5(self) -> formulas.OmegaVector:
        if self._omega5 is None:
            self._omega5 = formulas.omega_vector(self.p, self.bset, depth=5)
        return self._omega5

    @property
    def omega6(self) -> formulas.OmegaVector:
        if self._omega6 is None:
            self._omega6 = formulas.omega_vector(self.p, self.bset, depth=6)
        return self._omega6


def _result(p: int, tag: str, case: str, lhs: Residue, rhs: Residue) -> CheckResult:
    return CheckResult(
        p=p, tag=tag, case=case,
        lhs=str(lhs.value), rhs=str(rhs.value),
        modulus=str(lhs.modulus.value),
        passed=lhs == rhs,
    )


def _check_expansion(run: PrimeRun, tag: str, depth: int) -> list[CheckResult]:
    """Factorial expansion at the given depth versus the direct factorial,
    plus the per-coefficient prefix ladder against the Wilson quotient."""
    p = run.p
    omega = run.omega5 if depth == 5 else run.omega6
    out = []
    fact = oracles.factorial_mod(p, depth + 1)
    out.append(_result(p, tag, f"factorial-mod-p^{depth + 1}", fact, omega.factorial_form()))
    wq = oracles.wilson_quotient(p, depth).quotient
    for r in range(1, depth + 1):
        out.append(
            _result(p, tag, f"wilson-prefix-{r}", wq.reduce_to(r), omega.wilson_form(r))
        )
    if depth == 6:
        for nu in range(1, 6):
            out.append(
                _result(
                    p, tag, f"reduces-to-depth5-w{nu}",
                    run.omega6.omegas[nu].reduce_to(6 - nu),
                    run.omega5.omegas[nu],
                )
            )
    return out


def _check_thm1(run: PrimeRun) -> list[CheckResult]:
    return _check_expansion(run, "thm1", 5)


def _check_thm2(run: PrimeRun) -> list[CheckResult]:
    return _check_expansion(run, "thm2", 6)


def _levels_for(p: int) -> list[int]:
    return [5, 6] if p >= 11 else [5]


def _check_thm3(run: PrimeRun) -> list[CheckResult]:
    p = run.p
    out = []
    for level in _levels_for(p):
        for n in range(1, level + 1):
            direct = oracles.qtilde(n, p, level)
            rhs = formulas.qtilde_rhs(n, p, level, run.bset)
            out.append(_result(p, "thm3", f"n={n}-mod-p^{level}", direct, rhs))
    return out


def _check_props(run: PrimeRun) -> list[CheckResult]:
    p = run.p
    out = []
    for level in _levels_for(p):
        for n in range(1, level + 1):
            direct = oracles.qtilde(n, p, level)
            rhs = formulas.qtilde_via_coefficients(n, p, level=level)
            out.append(_result(p, "props", f"n={n}-mod-p^{level}", direct, rhs))
    return out


def _check_lemmas(run: PrimeRun) -> list[CheckResult]:
    """The (p-1)-lead variant of the n=5 congruence mod p^5."""
    p = run.p
    return [
        _result(
            p, "lemmas", "n=5-mod-p^5-unreduced-lead",
            oracles.qtilde(5, p, 5),
            formulas.qtilde_l5_n5_unreduced(p, run.bset),
        )
    ]


def _check_psi(run: PrimeRun) -> list[CheckResult]:
    p = run.p
    out = []
    for r in range(1, min(6, p - 1) + 1):
        direct = oracles.wilson_quotient(p, r).quotient
        via = formulas.wilson_from_power_sums(p, r)
        out.append(_result(p, "psi", f"wilson-r={r}", direct, via))
    return out


def _check_kummer(run: PrimeRun) -> list[CheckResult]:
    """Sampled higher-order congruence checks: the r-fold difference with
    step p-1 of the divided values vanishes mod p^r under the stated
    conditions."""
    p = run.p
    h = p - 1
    out = []
    for r in range(1, KUMMER_MAX_ORDER + 1):
        modulus = make_modulus(p, r)
        samples = list(KUMMER_SAMPLE) + [k * h for k in (1, 2, 3)]
        seen = set()
        for n in samples:
            if n in seen:
                continue
            seen.add(n)
            if not kummer_admissible(p, r, n):
                continue
            value = forward_difference(lambda nu: bnpd(nu, modulus), h, r, start=n)
            out.append(
                CheckResult(
                    p=p, tag="kummer", case=f"r={r}-n={n}",
                    lhs=str(value.value), rhs="0", modulus=str(p**r),
                    passed=value.is_zero(),
                )
            )
    return out


def _check_zero_exprs(run: PrimeRun) -> list[CheckResult]:
    return formulas.zero_expression_suite(run.p, run.bset)


def _check_table3(run: PrimeRun) -> list[CheckResult]:
    p = run.p
    out = []
    # omega_0 is the constant -1, and the depth-5 omega_5 is stated mod p by
    # the very expression of its mod-p form, so neither row could fail.
    vectors = [(run.omega5, 5, 4)] + ([(run.omega6, 6, 6)] if p >= 11 else [])
    for omega, depth, top in vectors:
        for nu in range(1, top + 1):
            out.append(
                _result(
                    p, "table3", f"depth{depth}-omega{nu}-mod-p",
                    omega.omegas[nu].reduce_to(1),
                    formulas.omega_mod_p_rhs(nu, p, run.bset),
                )
            )
    if p >= 11:
        for name, lhs, rhs in formulas.omega5_reduction_rows(p, run.bset):
            out.append(_result(p, "table3", f"omega5-reduction-{name}", lhs, rhs))
    return out


_CHECK_RUNNERS = {
    "thm1": _check_thm1,
    "thm2": _check_thm2,
    "thm3": _check_thm3,
    "props": _check_props,
    "lemmas": _check_lemmas,
    "psi": _check_psi,
    "kummer": _check_kummer,
    "zero-exprs": _check_zero_exprs,
    "table3": _check_table3,
}


def check_prime(p: int, cfg: RunConfig) -> list[CheckResult]:
    """All selected checks for one prime; bound misses become skip markers
    and internal errors become failed results, never exceptions."""
    run = PrimeRun(p)
    results: list[CheckResult] = []
    for tag, min_p in CHECK_ORDER:
        if tag not in cfg.checks:
            continue
        if p < min_p:
            results.append(
                CheckResult(p=p, tag=tag, case="skipped", lhs="", rhs="",
                            modulus="", passed=True, skipped=True)
            )
            continue
        started = time.perf_counter()
        try:
            found = _CHECK_RUNNERS[tag](run)
        except Exception as exc:  # surface as a failure, keep sweeping
            found = [
                CheckResult(p=p, tag=tag, case="error", lhs=f"error: {exc}",
                            rhs="", modulus="", passed=False)
            ]
        elapsed = time.perf_counter() - started
        for item in found:
            item.elapsed = elapsed / max(len(found), 1)
        results.extend(found)
    return results


def _worker(args: tuple[int, RunConfig]) -> list[CheckResult]:
    p, cfg = args
    return check_prime(p, cfg)


def write_report(results: list[CheckResult], fmt: str, stream, summary: str | None = None) -> None:
    if fmt == "json":
        json.dump([r.row() for r in results], stream, indent=1)
        stream.write("\n")
    elif fmt == "csv":
        stream.write("p,tag,case,lhs,rhs,modulus,pass\n")
        for r in results:
            row = r.row()
            stream.write(
                f"{row['p']},{row['tag']},{row['case']},{row['lhs']},"
                f"{row['rhs']},{row['modulus']},{str(row['pass']).lower()}\n"
            )
    else:
        for r in results:
            if not r.passed:
                stream.write(
                    f"FAIL p={r.p} {r.tag}/{r.case}: lhs={r.lhs} rhs={r.rhs} "
                    f"mod {r.modulus}\n"
                )
        if summary is not None:
            stream.write(summary + "\n")


def summarize(results: list[CheckResult]) -> tuple[int, int, int]:
    checked = [r for r in results if not r.skipped]
    failed = sum(1 for r in checked if not r.passed)
    skipped = len(results) - len(checked)
    return len(checked), failed, skipped


def run_and_report(cfg: RunConfig, stream=None) -> int:
    """Sweep the configured range; returns 0 when every check passed."""
    started = time.perf_counter()
    primes = enumerate_primes(cfg.pmin, cfg.pmax)
    results: list[CheckResult] = []
    if cfg.jobs == 1 or len(primes) <= 1:
        for p in primes:
            results.extend(check_prime(p, cfg))
    else:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            chunk = max(1, len(primes) // (cfg.jobs * 8))
            for batch in pool.map(_worker, [(p, cfg) for p in primes], chunksize=chunk):
                results.extend(batch)
    elapsed = time.perf_counter() - started

    checked, failed, skipped = summarize(results)
    summary = (
        f"{len(primes)} primes in [{cfg.pmin}, {cfg.pmax}]: "
        f"{checked} checks, {checked - failed} passed, {failed} failed, "
        f"{skipped} skipped ({elapsed:.1f}s)"
    )
    if stream is None and cfg.out:
        with open(cfg.out, "w") as fh:
            write_report(results, cfg.fmt, fh, summary)
    else:
        stream = sys.stdout if stream is None else stream
        try:
            write_report(results, cfg.fmt, stream, summary)
            stream.flush()
        except BrokenPipeError:
            # The reader left early (as `| head` does).  Point stdout at
            # devnull so the flush at interpreter exit cannot raise again.
            if stream is sys.stdout:
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
    # A text report on stdout already ends with the summary.
    if cfg.fmt != "text" or stream is not sys.stdout:
        print(summary, file=sys.stderr)
    return 1 if failed else 0

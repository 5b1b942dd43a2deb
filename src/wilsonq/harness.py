"""Prime-range verification harness.

Per prime, one :class:`PrimeRun` owns every derived value the selected
checks share: the Bernoulli engine (power-sum tables and p*B_m values), the
divided-Bernoulli set, the coefficient ladders, the Fermat-quotient power
sums, the one factorial (p-1)! mod p^7 with its Wilson quotient, and the
power-sum levels the prime supports.  It is built when the prime's checks
start and dropped when they end, so no state outlives its prime.

The checks are one table, :data:`CHECKS`, of (tag, smallest prime, runner).
A runner returns (case, lhs, rhs) triples, with rhs either a residue or 0 for
a vanishing claim; :func:`check_prime` alone turns them, and the skip and
error markers, into report rows.  Primes are independent units of work, so
the sweep is embarrassingly parallel: with ``--jobs`` above 1 it forks
workers that each take every W-th prime, and the rows are merged back in
prime order, so reports are byte-identical for any worker count.
"""
from __future__ import annotations

import csv
import marshal
import os
import signal
import sys
import time
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii

from . import formulas, oracles
from .bernoulli import (MIN_P, BernoulliEngine, DividedSet, bnpd, depths, divided_set,
                        kummer_admissible)
from .differences import forward_difference
from .residues import Residue, check_size, check_window, is_prime, make_modulus

#: Even indices sampled by the kummer check (the windows reach a bit higher).
KUMMER_SAMPLE = (4, 10, 16, 22, 34, 50, 98, 124, 156, 178, 200)
KUMMER_MAX_ORDER = 3

#: What a check runner returns per case: (case, lhs, rhs), rhs 0 for a
#: vanishing claim.
Row = tuple[str, Residue, Residue | int]


@dataclass
class CheckResult:
    """One report row."""

    p: int
    tag: str
    case: str
    lhs: str
    rhs: str
    modulus: str
    passed: bool
    elapsed: float = 0.0
    skipped: bool = False

    def row(self) -> dict:
        """The serialized form (timing deliberately excluded so reports are
        byte-stable across runs and worker counts)."""
        return {
            "p": self.p,
            "tag": self.tag,
            "case": self.case,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "modulus": self.modulus,
            "pass": self.passed,
        }


class PrimeRun:
    """Everything one prime's checks share, built on first use: the Bernoulli
    engine every Bernoulli value of the prime comes from, the divided set and
    omega ladders built on it, Q_p(1..6) mod p^6 (``sums``), from which the
    direct side of ``thm3``, ``props``, ``lemmas`` and ``psi`` reduces, and
    (p-1)! mod p^7 with W_p mod p^6 (``wilson``), from which the direct side
    of ``thm1``, ``thm2`` and ``psi`` reduces.  ``levels`` are the power-sum
    precisions (and ladder depths) the prime supports."""

    def __init__(self, p: int):
        self.p = p
        self.levels = depths(p)
        self._omegas: dict[int, formulas.OmegaVector] = {}

    @cached_property
    def engine(self) -> BernoulliEngine:
        return BernoulliEngine(self.p)

    @cached_property
    def bset(self) -> DividedSet:
        return divided_set(self.p, self.engine)

    @cached_property
    def sums(self) -> tuple[Residue, ...]:
        return oracles.q_power_sums(self.p, 6)

    @cached_property
    def wilson(self) -> oracles.WilsonRecord:
        return oracles.wilson_quotient(self.p, 6)

    def omega(self, depth: int) -> formulas.OmegaVector:
        """The coefficient ladder at ``depth``, built on first use."""
        if depth not in self._omegas:
            self._omegas[depth] = formulas.omega_vector(self.p, self.bset, depth)
        return self._omegas[depth]


def kummer_differences(p: int, engine: BernoulliEngine, starts: Iterable[int],
                       max_order: int) -> list[tuple[int, int, Residue]]:
    """(r, n, value) for r = 1..max_order and each admissible start n (first
    occurrence only, in the given order): the r-fold difference with step
    p-1 of the divided values from index n, taken mod p^r, which Kummer's
    congruences claim is 0.  Each distinct index is evaluated once, at the
    highest order that reads it (the orders are walked from the top down),
    and held as an integer representative.  Each difference is taken on
    those integers and reduced once, into its row's residue."""
    h = p - 1
    starts = list(dict.fromkeys(starts))
    windows = [(r, n) for r in range(max_order, 0, -1) for n in starts
               if kummer_admissible(p, r, n)]
    held: dict[int, int] = {}
    for r, n in windows:
        modulus = make_modulus(p, r)
        for index in range(n, n + r * h + 1, h):
            if index not in held:
                held[index] = bnpd(index, modulus, engine).value
    return [(r, n, Residue(forward_difference(held.__getitem__, h, r, start=n),
                           make_modulus(p, r)))
            for r, n in sorted(windows, key=lambda window: window[0])]


def _expansion(run: PrimeRun, depth: int) -> list[Row]:
    """Factorial expansion at the given depth versus the direct factorial,
    plus the per-coefficient prefix ladder against the Wilson quotient and,
    where the prime supports the depth below, each shared coefficient against
    that ladder's."""
    omega = run.omega(depth)
    rows = [(f"factorial-mod-p^{depth + 1}", run.wilson.factorial.reduce_to(depth + 1),
             omega.factorial_form())]
    rows += [(f"wilson-prefix-{r}", run.wilson.quotient.reduce_to(r), omega.wilson_form(r))
             for r in range(1, depth + 1)]
    if depth - 1 in run.levels:
        lower = run.omega(depth - 1)
        rows += [(f"reduces-to-depth{depth - 1}-w{nu}", omega.omegas[nu].reduce_to(depth - nu),
                  lower.omegas[nu]) for nu in range(1, depth)]
    return rows


def _power_sums(run: PrimeRun, closed_form) -> list[Row]:
    """The scaled power sums at every level against ``closed_form(n, p,
    level, bset)``."""
    return [(f"n={n}-mod-p^{level}", oracles.qtilde(n, run.p, level, run.sums),
             closed_form(n, run.p, level, run.bset))
            for level in run.levels for n in range(1, level + 1)]


def _check_lemmas(run: PrimeRun) -> list[Row]:
    """The (p-1)-lead variant of the n=5 congruence mod p^5."""
    return [("n=5-mod-p^5-unreduced-lead", oracles.qtilde(5, run.p, 5, run.sums),
             formulas.qtilde_l5_n5_unreduced(run.p, run.bset))]


def _check_psi(run: PrimeRun) -> list[Row]:
    """W_p from the power sums, evaluated once at the top precision: each
    lower row's right side is that value mod p^r, as reduction is a ring map
    and every PTILDE[nu] monomial carries weight nu-1, so the terms past
    nu = r vanish mod p^r."""
    top = min(6, run.p - 1)
    rhs = formulas.wilson_from_power_sums(run.p, top, run.sums)
    return [(f"wilson-r={r}", run.wilson.quotient.reduce_to(r), rhs.reduce_to(r))
            for r in range(1, top + 1)]


def _check_kummer(run: PrimeRun) -> list[Row]:
    """Sampled higher-order congruences of the divided values."""
    starts = KUMMER_SAMPLE + tuple(k * (run.p - 1) for k in (1, 2, 3))
    return [(f"r={r}-n={n}", value, 0)
            for r, n, value in kummer_differences(run.p, run.engine, starts, KUMMER_MAX_ORDER)]


def _check_zero_exprs(run: PrimeRun) -> list[Row]:
    return [(name, value, 0) for name, value in formulas.zero_expressions(run.p, run.bset)]


def _check_table3(run: PrimeRun) -> list[Row]:
    # omega_0 is the constant -1, and the top coefficient of each ladder is
    # stated mod p by the very expression of its mod-p form, so none of
    # those rows could fail.
    rows = []
    for depth in run.levels:
        rows += [(f"depth{depth}-omega{nu}-mod-p", run.omega(depth).omegas[nu].reduce_to(1),
                  formulas.omega_mod_p_rhs(nu, run.p, run.bset)) for nu in range(1, depth)]
        rows += [(f"omega{depth - 1}-reduction-{name}", group, image) for name, group, image
                 in formulas.omega_reduction_rows(run.p, run.bset, depth)]
    return rows


#: (tag, smallest prime, runner) in canonical run order.  A runner that reads
#: the divided set starts where the set does, at MIN_P[5], or at the depth it
#: expands.
CHECKS = (
    ("thm1", MIN_P[5], lambda run: _expansion(run, 5)),
    ("thm2", MIN_P[6], lambda run: _expansion(run, 6)),
    ("thm3", MIN_P[5], lambda run: _power_sums(run, formulas.qtilde_rhs)),
    ("props", MIN_P[5], lambda run: _power_sums(run, formulas.qtilde_via_coefficients)),
    ("lemmas", MIN_P[5], _check_lemmas),
    ("psi", 3, _check_psi),
    ("kummer", 7, _check_kummer),
    ("zero-exprs", MIN_P[5], _check_zero_exprs),
    ("table3", MIN_P[5], _check_table3),
)
CHECK_TAGS = frozenset(tag for tag, _, _ in CHECKS)


@dataclass(frozen=True)
class RunConfig:
    pmin: int
    pmax: int
    checks: frozenset[str] = CHECK_TAGS
    jobs: int = 1
    fmt: str = "text"
    out: str | None = None

    def __post_init__(self):
        check_window(self.pmin, self.pmax)
        check_size(self.pmax)
        if not self.checks:
            raise ValueError("no checks selected")
        unknown = self.checks - CHECK_TAGS
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.fmt not in ("json", "csv", "text"):
            raise ValueError(f"unknown format: {self.fmt}")


def enumerate_primes(pmin: int, pmax: int) -> list[int]:
    """Ascending primes in [pmin, pmax] by deterministic Miller-Rabin, so
    memory follows the window rather than pmax."""
    check_window(pmin, pmax)
    return [n for n in range(pmin, pmax + 1) if is_prime(n)]


def check_prime(p: int, cfg: RunConfig) -> list[CheckResult]:
    """All selected checks for one prime as report rows.  A row passes when
    lhs == rhs; a vanishing claim (rhs 0) reports lhs at its own modulus.
    Bound misses become skip markers and internal errors become failed
    rows, never exceptions."""
    run = PrimeRun(p)
    results: list[CheckResult] = []
    for tag, min_p, runner in CHECKS:
        if tag not in cfg.checks:
            continue
        if p < min_p:
            results.append(CheckResult(p, tag, "skipped", "", "", "", passed=True, skipped=True))
            continue
        started = time.perf_counter()
        try:
            found = [
                CheckResult(p, tag, case, str(lhs.value),
                            str(rhs.value if isinstance(rhs, Residue) else rhs),
                            str(lhs.modulus.value), passed=lhs == rhs)
                for case, lhs, rhs in runner(run)
            ]
        except Exception as exc:  # surface as a failure, keep sweeping
            found = [CheckResult(p, tag, "error", f"error: {exc}", "", "", passed=False)]
        elapsed = time.perf_counter() - started
        for item in found:
            item.elapsed = elapsed / max(len(found), 1)
        results.extend(found)
    return results


def _run_share(primes: list[int], cfg: RunConfig, write_fd: int) -> None:
    """A forked worker's whole life: the rows of ``primes``, prime by prime,
    as one marshal blob of plain tuples on ``write_fd``, then ``os._exit``,
    so no parent state (buffers, atexit hooks) is flushed or run twice."""
    code = 1
    try:
        rows = [[(r.p, r.tag, r.case, r.lhs, r.rhs, r.modulus, r.passed, r.elapsed, r.skipped)
                 for r in check_prime(p, cfg)] for p in primes]
        with open(write_fd, "wb") as out:
            out.write(marshal.dumps(rows))
        code = 0
    finally:
        os._exit(code)


def _forked_sweep(primes: list[int], cfg: RunConfig, workers: int) -> list[CheckResult]:
    """Fork ``workers`` children, child i checking ``primes[i::workers]``,
    read each one's rows, reap it, and merge the rows in prime order: prime
    k sits at worker k % W, position k // W.  A worker that exits non-zero
    or sends a truncated blob raises ChildProcessError; on any exception
    every child not yet reaped is killed and reaped."""
    running: list[int] = []
    pipes = []
    try:
        for i in range(workers):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
            except OSError:
                os.close(write_fd)
                raise
            if pid == 0:  # the child never returns from here
                _run_share(primes[i::workers], cfg, write_fd)
            # Closed at once, so no later child holds this write end and the
            # pipe reads EOF when worker i exits.
            os.close(write_fd)
            running.append(pid)
        shares = []
        for worker, pipe in enumerate(pipes):
            with pipe:
                blob = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(running[0], 0)[1])
            running.pop(0)
            if code != 0:
                raise ChildProcessError(f"worker {worker} exited with status {code}")
            try:
                shares.append(marshal.loads(blob))
            except (EOFError, ValueError):
                raise ChildProcessError(f"worker {worker} sent a truncated report") from None
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [CheckResult(*row) for k in range(len(primes))
            for row in shares[k % workers][k // workers]]


#: One JSON report row as json.dump(rows, indent=1) writes it: the keys of
#: ``CheckResult.row()`` in order, each string value through
#: ``encode_basestring_ascii``.
_JSON_ROW = (' {{\n  "p": {},\n  "tag": {},\n  "case": {},\n  "lhs": {},\n  "rhs": {},\n'
             '  "modulus": {},\n  "pass": {}\n }}')


def write_report(results: list[CheckResult], fmt: str, stream, summary: str | None = None) -> None:
    if fmt == "json":
        # Row by row, byte-identical to json.dump(rows, indent=1) plus "\n".
        text = encode_basestring_ascii
        opening = "[\n"
        for r in results:
            stream.write(opening + _JSON_ROW.format(
                r.p, text(r.tag), text(r.case), text(r.lhs), text(r.rhs), text(r.modulus),
                "true" if r.passed else "false"))
            opening = ",\n"
        stream.write("\n]\n" if results else "[]\n")
    elif fmt == "csv":
        # csv quotes a field only when it holds a comma, quote or newline,
        # as an error message may.
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(("p", "tag", "case", "lhs", "rhs", "modulus", "pass"))
        for r in results:
            writer.writerow((r.p, r.tag, r.case, r.lhs, r.rhs, r.modulus,
                             "true" if r.passed else "false"))
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
    """Sweep the configured range; returns 0 when every check passed.  The
    report goes to ``stream``, else to ``cfg.out``, which is opened before
    the sweep so that an unwritable path fails at once, else to stdout."""
    if stream is None and cfg.out:
        with open(cfg.out, "w") as fh:
            return run_and_report(cfg, fh)
    started = time.perf_counter()
    primes = enumerate_primes(cfg.pmin, cfg.pmax)
    # Every worker is forked at once: no more than primes or cores, and
    # none where the platform cannot fork.
    workers = min(cfg.jobs, len(primes), os.cpu_count() or 1) if hasattr(os, "fork") else 1
    if workers > 1:
        results = _forked_sweep(primes, cfg, workers)
    else:
        results = [r for p in primes for r in check_prime(p, cfg)]
    elapsed = time.perf_counter() - started

    checked, failed, skipped = summarize(results)
    summary = (
        f"{len(primes)} primes in [{cfg.pmin}, {cfg.pmax}]: "
        f"{checked} checks, {checked - failed} passed, {failed} failed, "
        f"{skipped} skipped ({elapsed:.1f}s)"
    )
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

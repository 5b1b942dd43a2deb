"""Prime-range verification harness.

Per prime, one :class:`PrimeRun` owns every derived value the selected
checks share: the Bernoulli engine (power-sum tables and p*B_m values), the
divided-Bernoulli set, the coefficient ladders, the scaled Fermat-quotient
power sums, the one factorial (p-1)! mod p^7 with its Wilson quotient, and
the power-sum levels the prime supports.  It is built when the prime's checks
start and dropped when they end, so no state outlives its prime.

The checks are one table, :data:`CHECKS`, of (tag, smallest prime, runner).
A runner returns (case, lhs, rhs) triples, with rhs either a residue or 0 for
a vanishing claim; :func:`check_prime` alone turns them, and the skip and
error markers, into report rows.  Primes are independent units of work, so
the sweep is embarrassingly parallel: with ``--jobs`` above 1 it forks
workers that each start on a usable CPU of their own, take every W-th prime
and send their rows prime by prime.
Either way one loop writes each prime's rows as they come, in prime order,
so reports are byte-identical for any worker count and the parent holds one
prime's rows at a time.
"""
from __future__ import annotations

import csv
import marshal
import os
import signal
import stat
import sys
import time
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, NamedTuple

from . import formulas, oracles
from .bernoulli import (MIN_P, BernoulliEngine, DividedSet, depths, divided_set,
                        forward_difference, kummer_admissible, set_spec)
from .residues import Residue, check_window, is_prime, make_modulus, split_p

#: What a check runner returns per case: (case, lhs, rhs), rhs 0 for a
#: vanishing claim.
Row = tuple[str, Residue, Residue | int]


class CheckResult(NamedTuple):
    """One report row.  A report writes the fields up to ``passed``;
    ``elapsed``, the row's share of its tag's time, is left out so reports
    are byte-stable across runs and worker counts."""

    p: int
    tag: str
    case: str
    lhs: str
    rhs: str
    modulus: str
    passed: bool
    elapsed: float = 0.0
    skipped: bool = False


class PrimeRun:
    """Everything one prime's checks share, built on first use: the Bernoulli
    engine every Bernoulli value of the prime comes from, the divided set and
    omega ladders built on it, Q~_1..Q~_top mod p^top (``sums``), read by
    ``thm3``, ``props``, ``lemmas`` and ``psi``, and (p-1)! mod p^(top+1)
    with W_p mod p^top (``wilson``), read by ``thm1`` and ``thm2``
    (``.factorial``) and ``psi`` (``.quotient``).  ``top`` = min(6, p-1) is
    the one precision rule; ``levels`` are the power-sum precisions (and
    ladder depths) the prime supports."""

    def __init__(self, p: int):
        self.p = p
        self.levels = depths(p)
        self.top = min(max(MIN_P), p - 1)
        self._omegas: dict[int, tuple[Residue, ...]] = {}

    @cached_property
    def engine(self) -> BernoulliEngine:
        return BernoulliEngine(self.p)

    @cached_property
    def bset(self) -> DividedSet:
        return divided_set(self.p, self.engine)

    @cached_property
    def sums(self) -> tuple[Residue, ...]:
        return oracles.qtilde_sums(self.p, self.top)

    @cached_property
    def wilson(self) -> oracles.WilsonRecord:
        return oracles.wilson_quotient(self.p, self.top)

    def omega(self, depth: int) -> tuple[Residue, ...]:
        """The coefficient ladder at ``depth``, built on first use."""
        if depth not in self._omegas:
            self._omegas[depth] = formulas.omega_vector(self.p, self.bset, depth)
        return self._omegas[depth]


def _expansion(run: PrimeRun, depth: int) -> list[Row]:
    """Factorial expansion at the given depth versus the direct factorial,
    which fixes W_p mod p^depth.  That each coefficient the ladder shares
    with the depth below agrees with it follows from the kummer rows, as
    the tests certify, so it has no row."""
    return [(f"factorial-mod-p^{depth + 1}", run.wilson.factorial.reduce_to(depth + 1),
             formulas.factorial_form(run.omega(depth)))]


def _power_sums(run: PrimeRun, closed_form) -> list[Row]:
    """The scaled power sums at every level against ``closed_form(n, p,
    level, bset)``."""
    return [(f"n={n}-mod-p^{level}", run.sums[n - 1].reduce_to(level),
             closed_form(n, run.p, level, run.bset))
            for level in run.levels for n in range(1, level + 1)]


def _check_lemmas(run: PrimeRun) -> list[Row]:
    """The (p-1)-lead variant of the n=5 congruence mod p^5."""
    return [("n=5-mod-p^5-unreduced-lead", run.sums[4].reduce_to(5),
             formulas.qtilde_l5_n5_unreduced(run.p, run.bset))]


def _check_psi(run: PrimeRun) -> list[Row]:
    """W_p from the power sums at the top precision, which implies each lower
    one: every PTILDE[nu] monomial carries weight nu-1."""
    return [(f"wilson-r={run.top}", run.wilson.quotient,
             formulas.wilson_from_power_sums(run.sums))]


def _check_kummer(run: PrimeRun) -> list[Row]:
    """Kummer's congruences on each family of the divided set, n(p-1) - d for
    n = 1, 2, ..: the r-fold difference of the set's own values from n = 1,
    mod p^r, for each admissible r below the family's length, by r and then
    d.  They are the premise of the relations among the set's displays that
    the tests certify in place of rows."""
    p = run.p
    lengths = {d: r for (n, d), r in set_spec(run.levels[-1]).items() if n == 1}
    return [(f"r={r}-n={p - 1 - d}", Residue(forward_difference(
                lambda n: run.bset[n, d].value, 1, r, start=1), make_modulus(p, r)), 0)
            for r in range(1, max(lengths.values())) for d, length in lengths.items()
            if r < length and kummer_admissible(p, r, p - 1 - d)]


def _check_zero_exprs(run: PrimeRun) -> list[Row]:
    return [(name, value, 0) for name, value in formulas.zero_expressions(run.p, run.bset)]


def _check_table3(run: PrimeRun) -> list[Row]:
    # nu = 1..4 on the deepest ladder: omega_0 is the constant -1, and each
    # ladder's top coefficient is stated mod p by its own display.  That the
    # other ladder and the depth-6 term groups of omega_5 agree with it mod p
    # follow from the kummer rows, as the tests certify, so they have no row.
    depth = run.levels[-1]
    return [(f"depth{depth}-omega{nu}-mod-p", run.omega(depth)[nu].reduce_to(1),
             formulas.omega_mod_p_rhs(nu, run.p, run.bset)) for nu in range(1, 5)]


#: (tag, smallest prime, runner) in canonical run order.  A runner that reads
#: the divided set or its spec starts where the set does, at MIN_P[5], or at
#: the depth it expands.
CHECKS = (
    ("thm1", MIN_P[5], lambda run: _expansion(run, 5)),
    ("thm2", MIN_P[6], lambda run: _expansion(run, 6)),
    ("thm3", MIN_P[5], lambda run: _power_sums(run, formulas.qtilde_rhs)),
    ("props", MIN_P[5], lambda run: _power_sums(run, formulas.qtilde_via_coefficients)),
    ("lemmas", MIN_P[5], _check_lemmas),
    ("psi", 3, _check_psi),
    ("kummer", MIN_P[5], _check_kummer),
    ("zero-exprs", MIN_P[5], _check_zero_exprs),
    ("table3", MIN_P[5], _check_table3),
)
CHECK_TAGS = frozenset(tag for tag, _, _ in CHECKS)


class RunConfig:
    """One sweep's settings, refused here when out of range."""

    __slots__ = ("pmin", "pmax", "checks", "jobs", "fmt", "out")

    def __init__(self, pmin: int, pmax: int, checks: frozenset[str] = CHECK_TAGS,
                 jobs: int = 1, fmt: str = "text", out: str | None = None):
        check_window(pmin, pmax)
        if not checks:
            raise ValueError("no checks selected")
        unknown = checks - CHECK_TAGS
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if fmt not in ("json", "csv", "text"):
            raise ValueError(f"unknown format: {fmt}")
        self.pmin, self.pmax, self.checks = pmin, pmax, checks
        self.jobs, self.fmt, self.out = jobs, fmt, out


def enumerate_primes(pmin: int, pmax: int) -> list[int]:
    """Ascending primes in [pmin, pmax] by trial division, so memory follows
    the window rather than pmax."""
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
            found = [(case, str(lhs.value), str(rhs.value if isinstance(rhs, Residue) else rhs),
                      str(lhs.modulus.value), lhs == rhs) for case, lhs, rhs in runner(run)]
        except Exception as exc:  # surface as a failure, keep sweeping
            found = [("error", f"error: {exc}", "", "", False)]
        share = (time.perf_counter() - started) / max(len(found), 1)
        results += [CheckResult(p, tag, *fields, share) for fields in found]
    return results


def _run_share(primes: list[int], cfg: RunConfig, write_fd: int, worker: int) -> None:
    """A forked worker's whole life: per prime of ``primes``, one frame on
    ``write_fd`` as soon as it is made (the marshalled rows' length, then the
    rows, so the parent loads each frame whole rather than field by field),
    then ``os._exit``, so no parent state is flushed or run twice.  Worker i
    first moves to the i-th usable CPU, as a forked child starts on its
    parent's and may stay there for a short sweep, then takes every usable
    CPU back, so the kernel may still move it; refused, it stays put."""
    code = 1
    try:
        try:
            cpus = sorted(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {cpus[worker % len(cpus)]})
            os.sched_setaffinity(0, cpus)
        except (AttributeError, OSError):
            pass
        with open(write_fd, "wb") as out:
            for p in primes:
                frame = marshal.dumps([tuple(r) for r in check_prime(p, cfg)])
                out.write(marshal.dumps(len(frame)) + frame)
                out.flush()
        code = 0
    finally:
        os._exit(code)


def _forked_sweep(primes: list[int], cfg: RunConfig, workers: int) -> Iterator[list[CheckResult]]:
    """Fork ``workers`` children, child i checking ``primes[i::workers]``,
    and yield each prime's rows in prime order as they arrive: prime k is
    the next frame of worker k % W.  That worker has nothing unread ahead
    of prime k, so the sweep cannot deadlock, and no worker runs more than
    a pipe's worth of frames ahead.  A worker whose frames end early raises
    ChildProcessError.  However the generator ends (its last prime, an
    exception, or ``close``), every child not yet reaped is killed and
    reaped; after its last frame a worker has nothing left to do."""
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
                _run_share(primes[i::workers], cfg, write_fd, i)
            # Closed at once, so no later child holds this write end and the
            # pipe reads EOF when worker i exits.
            os.close(write_fd)
            running.append(pid)
        for k in range(len(primes)):
            try:
                rows = marshal.loads(pipes[k % workers].read(marshal.load(pipes[k % workers])))
            except (EOFError, ValueError):
                # Closed first, so that a worker still writing exits.
                pipes[k % workers].close()
                code = os.waitstatus_to_exitcode(os.waitpid(running.pop(k % workers), 0)[1])
                fault = f"exited with status {code}" if code else "sent a truncated report"
                raise ChildProcessError(f"worker {k % workers} {fault}") from None
            yield [CheckResult(*row) for row in rows]
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


#: One JSON report row as json.dump(rows, indent=1) writes it: the fields of
#: ``CheckResult`` up to ``passed`` in order, ``passed`` under the key
#: "pass", each string value through ``encode_basestring_ascii``.
_JSON_ROW = (' {{\n  "p": {},\n  "tag": {},\n  "case": {},\n  "lhs": {},\n  "rhs": {},\n'
             '  "modulus": {},\n  "pass": {}\n }}')


def write_report(results: Iterable[CheckResult], fmt: str, stream) -> tuple[int, int, int]:
    """Write each row as it comes; returns the counts of checked, failed and
    skipped rows.  JSON is byte-identical to json.dump(rows, indent=1) plus
    "\n"; csv quotes a field only when it holds a comma, quote or newline, as
    an error message may; text lists the failed rows, with v_p(lhs - rhs)."""
    text = encode_basestring_ascii
    writer = csv.writer(stream, lineterminator="\n")
    if fmt == "csv":
        writer.writerow(("p", "tag", "case", "lhs", "rhs", "modulus", "pass"))
    opening, rows, failed, skipped = "[\n", 0, 0, 0
    for r in results:
        rows, failed, skipped = rows + 1, failed + (not r.passed), skipped + r.skipped
        verdict = "true" if r.passed else "false"
        if fmt == "json":
            stream.write(opening + _JSON_ROW.format(
                r.p, text(r.tag), text(r.case), text(r.lhs), text(r.rhs), text(r.modulus), verdict))
            opening = ",\n"
        elif fmt == "csv":
            writer.writerow((*r[:6], verdict))
        elif not r.passed:
            diff = int(r.lhs) - int(r.rhs) if r.modulus else 0  # 0 for an error row
            agrees = f" (agrees mod p^{split_p(diff, r.p)[0]})" if diff else ""
            stream.write(f"FAIL p={r.p} {r.tag}/{r.case}: lhs={r.lhs} rhs={r.rhs} "
                         f"mod {r.modulus}{agrees}\n")
    if fmt == "json":
        stream.write("\n]\n" if rows else "[]\n")
    return rows - skipped, failed, skipped


def run_and_report(cfg: RunConfig, stream=None) -> int:
    """Sweep the configured range; returns 0 when every check passed.  The
    report goes to ``stream``, else to ``cfg.out``, else to stdout.  A device
    or a pipe is written directly; a file is written to a sibling made before
    the sweep (so a bad path fails at once) that replaces it once the sweep
    ends, so a failed sweep leaves an existing file as it was and makes none."""
    if stream is not None or not cfg.out:
        return _sweep(cfg, sys.stdout if stream is None else stream)
    try:  # without O_CREAT: a missing path is made only by os.replace
        with open(cfg.out, "a", opener=lambda f, flags: os.open(f, flags & ~os.O_CREAT)) as fh:
            mode = os.fstat(fh.fileno()).st_mode
            if not stat.S_ISREG(mode):
                return _sweep(cfg, fh)
    except FileNotFoundError:
        mode = None
    path = os.path.realpath(cfg.out)
    part = f"{path}.{os.getpid()}.part"
    try:
        with open(part, "x") as fh:
            if mode is not None:  # a new report keeps the mode "x" gives it
                os.chmod(part, stat.S_IMODE(mode))
            code = _sweep(cfg, fh)
        os.replace(part, path)
        return code
    except OSError as exc:
        if exc.filename == part:  # name the path given, not its part file
            exc.filename = cfg.out
        raise
    finally:
        if os.path.lexists(part):
            os.unlink(part)


def _sweep(cfg: RunConfig, stream) -> int:
    """Check the configured range prime by prime, each prime's rows written
    to ``stream`` as they come, then the summary; returns 0 when every row
    passed."""
    started = time.perf_counter()
    primes = enumerate_primes(cfg.pmin, cfg.pmax)
    # Every worker is forked at once: no more than primes or the cores this
    # process may run on, and none where the platform cannot fork.
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    workers = min(cfg.jobs, len(primes), cores) if hasattr(os, "fork") else 1
    sweep = (_forked_sweep(primes, cfg, workers) if workers > 1
             else (check_prime(p, cfg) for p in primes))
    try:
        checked, failed, skipped = write_report(
            (r for rows in sweep for r in rows), cfg.fmt, stream)
        summary = (f"{len(primes)} primes in [{cfg.pmin}, {cfg.pmax}]: {checked} checks, "
                   f"{checked - failed} passed, {failed} failed, {skipped} skipped "
                   f"({time.perf_counter() - started:.1f}s)")
        if cfg.fmt == "text":
            stream.write(summary + "\n")
        stream.flush()
    except BrokenPipeError:
        # The reader left early (as `| head` does).  Point stdout at
        # devnull so the flush at interpreter exit cannot raise again.
        if stream is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        # Kills and reaps every worker when the sweep ends early.
        sweep.close()
    # A text report on stdout already ends with the summary.
    if cfg.fmt != "text" or stream is not sys.stdout:
        print(summary, file=sys.stderr)
    return 0 if failed == 0 else 1

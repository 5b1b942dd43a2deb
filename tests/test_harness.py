import csv
import io
import json
import marshal
import os
import random
import subprocess
import sys
import time
import tracemalloc
import types
import warnings
from pathlib import Path

import pytest

from wilsonq import formulas, harness, oracles
from wilsonq.bernoulli import MIN_P, BernoulliEngine, set_spec
from wilsonq.cli import main
from wilsonq.residues import PRIME_BOUND, Residue, is_prime, make_modulus
from wilsonq.harness import (
    CHECK_TAGS,
    CHECKS,
    CheckResult,
    PrimeRun,
    RunConfig,
    check_prime,
    enumerate_primes,
    run_and_report,
    write_report,
)


def test_enumerate_primes_examples():
    assert enumerate_primes(7, 13) == [7, 11, 13]
    assert enumerate_primes(14, 16) == []
    assert len(enumerate_primes(2, 30)) == 10
    with pytest.raises(ValueError):
        enumerate_primes(1, 30)
    with pytest.raises(ValueError):
        enumerate_primes(30, 7)


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(pmin=20, pmax=10)
    with pytest.raises(ValueError):
        RunConfig(pmin=7, pmax=20, checks=frozenset(["bogus"]))
    with pytest.raises(ValueError):
        RunConfig(pmin=7, pmax=20, jobs=0)
    with pytest.raises(ValueError):
        RunConfig(pmin=7, pmax=20, fmt="xml")


def test_runconfig_refuses_the_window_enumerate_primes_refuses():
    # one window rule: a config that could not be swept is refused at once
    for pmin, pmax in ((7, PRIME_BOUND), (1, 30), (30, 7)):
        with pytest.raises(ValueError):
            enumerate_primes(pmin, pmax)
        with pytest.raises(ValueError):
            RunConfig(pmin=pmin, pmax=pmax)
    with pytest.raises(ValueError, match="below"):
        RunConfig(pmin=7, pmax=PRIME_BOUND)


def test_empty_check_set_is_rejected():
    # no check selected would report "0 checks" and pass vacuously
    with pytest.raises(ValueError, match="no checks selected"):
        RunConfig(pmin=7, pmax=13, checks=frozenset())


def test_levels_follow_the_depth_table():
    assert MIN_P == {5: 7, 6: 11}
    assert [PrimeRun(p).levels for p in (5, 7, 11, 13)] == [(), (5,), (5, 6), (5, 6)]
    min_p = {tag: q for tag, q, _ in CHECKS}
    assert (min_p["thm1"], min_p["thm2"]) == (7, 11)
    cfg = RunConfig(pmin=7, pmax=11, checks=frozenset(["table3"]))
    kinds = {p: {r.case.split("-")[0] for r in check_prime(p, cfg)} for p in (7, 11)}
    assert kinds == {7: {"depth5"}, 11: {"depth5", "depth6", "omega5"}}


def test_check_prime_thm1_shape():
    cfg = RunConfig(pmin=7, pmax=7, checks=frozenset(["thm1"]))
    results = check_prime(7, cfg)
    assert len(results) == 6  # factorial end-to-end plus five prefixes
    assert all(r.passed and not r.skipped for r in results)
    cases = {r.case for r in results}
    assert "factorial-mod-p^6" in cases


def test_skip_semantics_below_bounds():
    cfg = RunConfig(pmin=7, pmax=7, checks=frozenset(["thm2"]))
    results = check_prime(7, cfg)
    assert len(results) == 1
    assert results[0].skipped and results[0].passed
    assert results[0].case == "skipped"

    cfg_all = RunConfig(pmin=3, pmax=3, checks=CHECK_TAGS)
    results = check_prime(3, cfg_all)
    run_tags = {r.tag for r in results if not r.skipped}
    assert run_tags == {"psi"}  # everything else is out of range at p=3


def test_internal_errors_become_failures(monkeypatch):
    def boom(run):
        raise RuntimeError("synthetic breakage")

    monkeypatch.setattr(harness, "CHECKS", tuple(
        (tag, min_p, boom if tag == "thm1" else runner) for tag, min_p, runner in harness.CHECKS
    ))
    cfg = RunConfig(pmin=7, pmax=7, checks=frozenset(["thm1"]))
    results = check_prime(7, cfg)
    assert len(results) == 1
    assert not results[0].passed
    assert "synthetic breakage" in results[0].lhs


def test_report_formats():
    cfg = RunConfig(pmin=7, pmax=11, checks=frozenset(["thm1"]), fmt="json")
    buf = io.StringIO()
    assert run_and_report(cfg, stream=buf) == 0
    rows = json.loads(buf.getvalue())
    assert {row["p"] for row in rows} == {7, 11}
    assert set(rows[0]) == {"p", "tag", "case", "lhs", "rhs", "modulus", "pass"}

    buf = io.StringIO()
    cfg_csv = RunConfig(pmin=7, pmax=11, checks=frozenset(["thm1"]), fmt="csv")
    run_and_report(cfg_csv, stream=buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "p,tag,case,lhs,rhs,modulus,pass"
    assert len(lines) == 13  # header + 6 rows per prime

    buf = io.StringIO()
    cfg_text = RunConfig(pmin=7, pmax=11, checks=frozenset(["thm1"]), fmt="text")
    run_and_report(cfg_text, stream=buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 1  # no failures: just the summary
    assert "12 checks, 12 passed, 0 failed" in lines[0]


def test_json_report_matches_json_dumps():
    results = [
        CheckResult(7, "thm1", "factorial-mod-p^6", "117648", "117648", "117649", passed=True),
        CheckResult(11, "psi", "wilson-r=2", "5", "6", "121", passed=False),
        CheckResult(3, "thm1", "skipped", "", "", "", passed=True, skipped=True),
        CheckResult(13, "kummer", "error", 'error: "bad" \\ p\u00e9 \u2260 \U0001d53d\n',
                    "", "", passed=False),
    ]
    for rows in (results, results[:1], []):
        buf = io.StringIO()
        write_report(rows, "json", buf)
        assert buf.getvalue() == json.dumps([r.row() for r in rows], indent=1) + "\n"
    assert buf.getvalue() == "[]\n"


def test_csv_quotes_error_messages():
    message = "error: missing cache entry: (n=1, d=2) (p=11)"
    results = [
        CheckResult(7, "thm1", "factorial-mod-p^6", "117648", "117648", "117649", passed=True),
        CheckResult(11, "thm3", "error", message, "", "", passed=False),
        CheckResult(13, "kummer", "error", 'error: "quoted"\nsecond line', "", "", passed=False),
    ]
    buf = io.StringIO()
    write_report(results, "csv", buf)
    assert buf.getvalue().startswith(
        "p,tag,case,lhs,rhs,modulus,pass\n7,thm1,factorial-mod-p^6,117648,117648,117649,true\n")
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert [len(row) for row in rows] == [7, 7, 7, 7]
    assert rows[2] == ["11", "thm3", "error", message, "", "", "false"]
    assert rows[3][3] == 'error: "quoted"\nsecond line'


def test_report_to_file(tmp_path):
    out = tmp_path / "report.json"
    cfg = RunConfig(pmin=7, pmax=13, checks=frozenset(["psi"]), fmt="json", out=str(out))
    assert run_and_report(cfg) == 0
    rows = json.loads(out.read_text())
    assert all(row["pass"] for row in rows)


def test_empty_range_passes():
    cfg = RunConfig(pmin=14, pmax=16, checks=CHECK_TAGS, fmt="json")
    buf = io.StringIO()
    assert run_and_report(cfg, stream=buf) == 0
    assert json.loads(buf.getvalue()) == []


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_count_independence(monkeypatch):
    # 14 primes over 2 workers, and over 3 in shares of 5, 5 and 4, merge
    # back into the serial report
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    base = dict(pmin=7, pmax=60, checks=frozenset(["thm1", "thm3", "psi", "kummer"]),
                fmt="json")
    serial = io.StringIO()
    assert run_and_report(RunConfig(**base, jobs=1), stream=serial) == 0
    for jobs in (2, 3):
        forked = io.StringIO()
        assert run_and_report(RunConfig(**base, jobs=jobs), stream=forked) == 0
        assert forked.getvalue() == serial.getvalue(), jobs
    _no_child_left()


def test_repeat_run_byte_identical():
    cfg = RunConfig(pmin=7, pmax=40, checks=frozenset(["thm1", "table3"]), fmt="csv")
    buf1, buf2 = io.StringIO(), io.StringIO()
    run_and_report(cfg, stream=buf1)
    run_and_report(cfg, stream=buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_text_summary_printed_once(capsys):
    cfg = RunConfig(pmin=7, pmax=11, checks=frozenset(["thm1"]), fmt="text")
    assert run_and_report(cfg) == 0
    captured = capsys.readouterr()
    assert (captured.out + captured.err).count("12 checks, 12 passed") == 1
    assert "12 checks, 12 passed" in captured.out

    cfg_json = RunConfig(pmin=7, pmax=11, checks=frozenset(["thm1"]), fmt="json")
    assert run_and_report(cfg_json) == 0
    captured = capsys.readouterr()
    assert "12 checks, 12 passed" not in captured.out
    assert captured.err.count("12 checks, 12 passed") == 1


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_broken_pipe_exits_1_quietly(capsys):
    cfg = RunConfig(pmin=7, pmax=40, checks=frozenset(["thm1"]), fmt="csv")
    assert run_and_report(cfg, stream=_ClosedPipe()) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_enumerate_primes_memory_follows_window():
    lo, hi = 10**9 - 1000, 10**9
    tracemalloc.start()
    try:
        primes = enumerate_primes(lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert len(primes) == 45
    odd = range(lo + 1, hi + 1, 2)
    assert primes == [n for n in odd if all(n % d for d in range(3, int(n**0.5) + 1, 2))]


def test_enumerate_primes_stops_at_primality_bound():
    # the bound is a composite that all the Miller-Rabin bases pass
    assert is_prime(PRIME_BOUND) and pow(41, PRIME_BOUND - 1, PRIME_BOUND) != 1
    assert PRIME_BOUND not in enumerate_primes(PRIME_BOUND - 40, PRIME_BOUND - 1)
    with pytest.raises(ValueError, match="below"):
        enumerate_primes(PRIME_BOUND - 10, PRIME_BOUND)
    assert main(["verify", "--pmin", "7", "--pmax", str(PRIME_BOUND)]) == 2


def test_jobs_clamped_to_primes_and_cores(monkeypatch):
    # every worker is forked at once, so the count is clamped to the primes
    # and the cores; the fork seam records it and sweeps in-process
    created = []

    def serial_fork(primes, cfg, workers):
        created.append(workers)
        return [r for p in primes for r in check_prime(p, cfg)]

    monkeypatch.setattr(harness, "_forked_sweep", serial_fork)
    base = dict(pmin=7, pmax=60, checks=frozenset(["thm1", "psi"]), fmt="json")
    serial = io.StringIO()
    assert run_and_report(RunConfig(**base, jobs=1), stream=serial) == 0
    assert created == []
    # 14 primes in [7, 60]
    for cores, jobs, want in ((4, 100000, 4), (4, 3, 3), (64, 100000, 14), (None, 8, None)):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cores)
        buf = io.StringIO()
        assert run_and_report(RunConfig(**base, jobs=jobs), stream=buf) == 0
        assert buf.getvalue() == serial.getvalue()
        assert (created.pop() if created else None) == want, (cores, jobs)


def test_forked_sweep_warns_nothing(monkeypatch):
    # Python 3.12+ warns when a process with threads forks, and reports the
    # warning even under -W error without raising it; the sweep must fork
    # from a single thread
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        cfg = RunConfig(pmin=7, pmax=30, checks=frozenset(["psi"]), jobs=2)
        assert run_and_report(cfg, stream=io.StringIO()) == 0
    assert [str(w.message) for w in seen] == []
    _no_child_left()


@pytest.mark.parametrize("fault", ["exit", "truncated"])
def test_dead_worker_is_one_error_line(fault, monkeypatch, capsys, tmp_path):
    # a worker that dies at p = 31, or whose blob is cut short, ends the
    # sweep with exit 2 and one error line, and leaves no child behind
    if fault == "exit":
        direct = harness.check_prime

        def dying(p, cfg):
            if p == 31:
                os._exit(3)
            return direct(p, cfg)

        monkeypatch.setattr(harness, "check_prime", dying)
    else:
        monkeypatch.setattr(harness, "marshal", types.SimpleNamespace(
            dumps=lambda rows: marshal.dumps(rows)[:-5], loads=marshal.loads))
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    out = tmp_path / "report.json"
    argv = ["verify", "--pmin", "7", "--pmax", "60", "--checks", "psi", "--jobs", "2",
            "--format", "json", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: worker "), err
    _no_child_left()


def test_failed_sweep_kills_every_worker(monkeypatch):
    # worker 0 dies at once while worker 1 would sleep for a minute: the
    # parent kills and reaps it instead of waiting
    def check(p, cfg):
        if p == 7:
            os._exit(3)
        time.sleep(60)
        return []

    monkeypatch.setattr(harness, "check_prime", check)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    started = time.monotonic()
    with pytest.raises(ChildProcessError, match="worker 0 exited with status 3"):
        run_and_report(RunConfig(pmin=7, pmax=13, checks=frozenset(["psi"]), jobs=2),
                       stream=io.StringIO())
    assert time.monotonic() - started < 30
    _no_child_left()


def test_failed_fork_reaps_the_forked(monkeypatch, capsys):
    # the second fork fails: the first worker is killed and reaped, and the
    # failure is one error line
    real_fork = os.fork
    forked = []

    def second_fails():
        if forked:
            raise OSError(11, "Resource temporarily unavailable")
        forked.append(True)
        return real_fork()

    monkeypatch.setattr(harness.os, "fork", second_fails)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    assert main(["verify", "--pmin", "7", "--pmax", "60", "--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert err == "error: [Errno 11] Resource temporarily unavailable\n"
    _no_child_left()


def test_psi_evaluates_the_power_sums_once(monkeypatch):
    # one evaluation at the top precision; each row's right side is that
    # value reduced, and equals the evaluation at the row's own precision
    calls = []
    direct = formulas.wilson_from_power_sums

    def counted(p, r, sums=None):
        calls.append((p, r))
        return direct(p, r, sums)

    monkeypatch.setattr(formulas, "wilson_from_power_sums", counted)
    cfg = RunConfig(pmin=3, pmax=101, checks=frozenset(["psi"]))
    for p in (3, 5, 7, 11, 101):
        calls.clear()
        run = PrimeRun(p)
        rows = harness._check_psi(run)
        top = min(6, p - 1)
        assert calls == [(p, top)], p
        want = [direct(p, r, run.sums) for r in range(1, top + 1)]
        assert [(rhs.value, rhs.precision) for _, _, rhs in rows] == \
            [(w.value, w.precision) for w in want]
        assert all(r.passed for r in check_prime(p, cfg))


def test_every_divided_set_row_can_fail():
    # with random divided values in place of the true ones, every row whose
    # closed form is built on the divided set must fail for some draw
    rng = random.Random(2510)
    bset_tags = {"thm1", "thm2", "thm3", "props", "lemmas", "zero-exprs", "table3"}
    for p in (11, 13):
        failed: dict[tuple[str, str], bool] = {}
        # drawn family by family, n ascending
        spec = sorted(set_spec(6).items(), key=lambda item: item[0][::-1])
        for _ in range(4):
            bset = {key: Residue(rng.randrange(p**r), make_modulus(p, r)) for key, r in spec}
            run = PrimeRun(p)
            run.__dict__["bset"] = bset
            for tag, _, runner in CHECKS:
                if tag in bset_tags:
                    for case, lhs, rhs in runner(run):
                        failed[(tag, case)] = failed.get((tag, case), False) or lhs != rhs
        assert len(failed) == 69
        assert [key for key, ever in failed.items() if not ever] == [], p


def test_divided_set_rows_start_where_the_set_does(monkeypatch):
    # a row that reads the divided set below MIN_P[5] would be an error row,
    # not a skip marker, so its bound must not lie below the set's own
    def no_set(p, engine):
        raise LookupError("divided set read")

    monkeypatch.setattr(harness, "divided_set", no_set)
    readers = {}
    for tag, min_p, runner in CHECKS:
        try:
            runner(PrimeRun(11))
        except LookupError:
            readers[tag] = min_p
    assert set(readers) == {"thm1", "thm2", "thm3", "props", "lemmas", "zero-exprs", "table3"}
    assert all(min_p >= MIN_P[5] for min_p in readers.values()), readers


def test_insufficient_valuation_is_an_error_row(monkeypatch):
    # an engine whose p*B_m is off by one breaks the integrality bnpd checks,
    # and the sweep reports that as a failed row, not an exception
    class OffByOne(BernoulliEngine):
        def pb_value(self, m, g):
            return (super().pb_value(m, g) + 1) % self.p**g

    monkeypatch.setattr(harness, "BernoulliEngine", OffByOne)
    rows = check_prime(11, RunConfig(pmin=11, pmax=11, checks=frozenset(["thm1", "kummer"])))
    assert [(r.tag, r.case, r.passed) for r in rows] == [
        ("thm1", "error", False), ("kummer", "error", False)]
    assert all("insufficient valuation" in r.lhs for r in rows)


def test_one_factorial_per_prime(monkeypatch):
    calls = []
    direct = oracles.factorial_mod

    def counted(p, r):
        calls.append((p, r))
        return direct(p, r)

    monkeypatch.setattr(oracles, "factorial_mod", counted)
    cfg = RunConfig(pmin=7, pmax=13, checks=CHECK_TAGS)
    for p in (7, 11, 13):
        calls.clear()
        assert all(r.passed for r in check_prime(p, cfg))
        assert calls == [(p, 7)], p


def test_kummer_sums_each_index_once(monkeypatch):
    # every index the windows read costs one power sum, and the column
    # passes fill them: at p = 101 the kummer check alone makes one pass per
    # sampled column pair (the start's column two below, whose v^2 fold
    # holds the start's own), one at the column 0 of the grid windows and
    # one above the block, each on a column table of its own next to the
    # v^(p-1) table of the block
    from wilsonq import bernoulli

    calls, tables, passes = [], [], []
    direct_sum, direct_pass = BernoulliEngine.power_sum, BernoulliEngine._column_pass
    direct_table = bernoulli.power_table

    def counted_sum(engine, j, g):
        calls.append(j)
        return direct_sum(engine, j, g)

    def counted_pass(engine, j):
        passes.append(j)
        direct_pass(engine, j)

    def counted_table(p, e, mod):
        tables.append(e)
        return direct_table(p, e, mod)

    monkeypatch.setattr(BernoulliEngine, "power_sum", counted_sum)
    monkeypatch.setattr(BernoulliEngine, "_column_pass", counted_pass)
    monkeypatch.setattr(bernoulli, "power_table", counted_table)
    rows = check_prime(101, RunConfig(pmin=101, pmax=101, checks=frozenset(["kummer"])))
    assert rows and all(r.passed for r in rows)
    assert len(calls) == len(set(calls)) == 85
    assert passes == [2, 8, 14, 20, 32, 48, 96, 124, 154, 176, 200, 600]
    assert tables == [100, 2, 8, 14, 20, 32, 48, 96, 24, 54, 76, 0, 600]


def test_kummer_differences_evaluate_each_index_once(monkeypatch):
    # each distinct index is one bnpd call, at the highest order reading it
    calls = []
    direct = harness.bnpd

    def counted(m, modulus, engine=None):
        calls.append((m, modulus.r))
        return direct(m, modulus, engine)

    monkeypatch.setattr(harness, "bnpd", counted)
    p, h = 101, 100
    starts = harness.KUMMER_SAMPLE + (h, 2 * h, 3 * h)
    found = harness.kummer_differences(p, BernoulliEngine(p), starts, 3)
    reads = {}
    for r, n, value in found:
        assert value.is_zero() and value.precision == r, (r, n)
        for index in range(n, n + r * h + 1, h):
            reads[index] = max(reads.get(index, 0), r)
    assert len(calls) == len(reads) == 46
    assert dict(calls) == reads


def test_kummer_scan_script_runs_clean():
    # the documented command of the dense scan script, the other caller of
    # kummer_differences
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "scripts/kummer_scan.py", "--primes", "7", "11", "13", "17", "19",
         "--nmax", "400", "--rmax", "3"],
        cwd=root, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "zero failures" in done.stdout

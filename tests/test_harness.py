import csv
import io
import itertools
import json
import marshal
import os
import random
import time
import tracemalloc
import types
import warnings

import pytest

from displays import kummer_relations
from reference_routes import kummer_certificate
from wilsonq import bernoulli, formulas, harness, oracles
from wilsonq.bernoulli import MIN_P, BernoulliEngine, depths, set_spec
from wilsonq.cli import main
from wilsonq.residues import P_LIMIT, Residue, is_prime, make_modulus
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
    for pmin, pmax in ((1, 30), (30, 7)):
        with pytest.raises(ValueError):
            enumerate_primes(pmin, pmax)


def test_runconfig_validation():
    for pmin, pmax, extra in ((20, 10, {}), (7, 20, {"checks": frozenset(["bogus"])}),
                              (7, 20, {"jobs": 0}), (7, 20, {"fmt": "xml"})):
        with pytest.raises(ValueError):
            RunConfig(pmin=pmin, pmax=pmax, **extra)


def test_runconfig_refuses_the_window_enumerate_primes_refuses():
    # one window rule: a config that could not be swept is refused at once
    for pmin, pmax in ((7, P_LIMIT + 1), (1, 30), (30, 7)):
        with pytest.raises(ValueError):
            enumerate_primes(pmin, pmax)
        with pytest.raises(ValueError):
            RunConfig(pmin=pmin, pmax=pmax)
    with pytest.raises(ValueError, match="at most"):
        RunConfig(pmin=7, pmax=P_LIMIT + 1)


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
    # table3 reads the deepest ladder the prime supports
    assert kinds == {7: {"depth5"}, 11: {"depth6"}}


def test_check_prime_thm1_shape():
    cfg = RunConfig(pmin=7, pmax=7, checks=frozenset(["thm1"]))
    results = check_prime(7, cfg)
    assert len(results) == 1  # the factorial end to end; p = 7 has no depth 4
    assert all(r.passed and not r.skipped for r in results)
    assert "factorial-mod-p^6" in {r.case for r in results}


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
    # the report's running counts see the failed row, and so does the exit
    buf = io.StringIO()
    assert run_and_report(RunConfig(pmin=7, pmax=11, checks=frozenset(["thm1", "thm2"])),
                          stream=buf) == 1
    lines = buf.getvalue().splitlines()
    assert lines[:2] == ["FAIL p=7 thm1/error: lhs=error: synthetic breakage rhs= mod ",
                         "FAIL p=11 thm1/error: lhs=error: synthetic breakage rhs= mod "]
    assert "3 checks, 1 passed, 2 failed, 1 skipped" in lines[2]


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
    assert len(lines) == 3  # header + 1 row per prime

    buf = io.StringIO()
    cfg_text = RunConfig(pmin=7, pmax=11, checks=frozenset(["thm1"]), fmt="text")
    run_and_report(cfg_text, stream=buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 1  # no failures: just the summary
    assert "2 checks, 2 passed, 0 failed" in lines[0]


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
        keys = ("p", "tag", "case", "lhs", "rhs", "modulus", "pass")
        expected = [dict(zip(keys, r)) for r in rows]
        assert buf.getvalue() == json.dumps(expected, indent=1) + "\n"
    assert buf.getvalue() == "[]\n"


def test_failed_text_row_names_the_first_differing_digit():
    # a failed row whose values differ shows the power of p its sides agree
    # to; an error row, and equal values at different precisions, do not
    rows = [
        CheckResult(7, "thm1", "factorial-mod-p^6", "720", str(720 + 3 * 7**3), "117649",
                    passed=False),
        CheckResult(11, "psi", "wilson-r=6", "5", "6", "1771561", passed=False),
        CheckResult(13, "kummer", "r=3-n=4", str(5 * 13**2), "0", "2197", passed=False),
        CheckResult(13, "thm3", "error", "error: synthetic breakage", "", "", passed=False),
        CheckResult(11, "table3", "depth6-omega1-mod-p", "3", "3", "11", passed=False),
        CheckResult(11, "thm2", "factorial-mod-p^7", "1", "1", "19487171", passed=True),
    ]
    buf = io.StringIO()
    assert write_report(rows, "text", buf) == (6, 5, 0)
    assert buf.getvalue().splitlines() == [
        "FAIL p=7 thm1/factorial-mod-p^6: lhs=720 rhs=1749 mod 117649 (agrees mod p^3)",
        "FAIL p=11 psi/wilson-r=6: lhs=5 rhs=6 mod 1771561 (agrees mod p^0)",
        "FAIL p=13 kummer/r=3-n=4: lhs=845 rhs=0 mod 2197 (agrees mod p^2)",
        "FAIL p=13 thm3/error: lhs=error: synthetic breakage rhs= mod ",
        "FAIL p=11 table3/depth6-omega1-mod-p: lhs=3 rhs=3 mod 11",
    ]


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
    # a longer file already at the path is replaced whole and keeps its
    # mode, a new one gets the mode open(path, "w") gives, and no part file
    # is left beside them
    out = tmp_path / "report.json"
    out.write_text("x" * 10**5)
    out.chmod(0o640)
    cfg = RunConfig(pmin=7, pmax=13, checks=frozenset(["psi"]), fmt="json", out=str(out))
    assert run_and_report(cfg) == 0
    buf = io.StringIO()
    assert run_and_report(cfg, stream=buf) == 0
    assert out.read_text() == buf.getvalue()
    assert out.stat().st_mode & 0o777 == 0o640
    rows = json.loads(out.read_text())
    assert all(row["pass"] for row in rows)
    new = tmp_path / "new.json"
    assert run_and_report(RunConfig(pmin=7, pmax=13, checks=frozenset(["psi"]), fmt="json",
                                    out=str(new))) == 0
    assert new.read_text() == buf.getvalue()
    with open(tmp_path / "made", "w"):
        pass
    assert new.stat().st_mode == (tmp_path / "made").stat().st_mode
    assert sorted(os.listdir(tmp_path)) == ["made", "new.json", "report.json"]


def test_empty_range_passes():
    cfg = RunConfig(pmin=14, pmax=16, checks=CHECK_TAGS, fmt="json")
    buf = io.StringIO()
    assert run_and_report(cfg, stream=buf) == 0
    assert json.loads(buf.getvalue()) == []


def _usable_cores(monkeypatch, n):
    # the sweep caps its workers at the CPUs this process may run on
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_count_independence(monkeypatch):
    # 14 primes over 2 workers, and over 3 in shares of 5, 5 and 4, merge
    # back into the serial report
    _usable_cores(monkeypatch, 3)
    base = dict(pmin=7, pmax=60, checks=frozenset(["thm1", "thm3", "psi", "kummer"]),
                fmt="json")
    serial = io.StringIO()
    assert run_and_report(RunConfig(**base, jobs=1), stream=serial) == 0
    for jobs in (2, 3):
        forked = io.StringIO()
        assert run_and_report(RunConfig(**base, jobs=jobs), stream=forked) == 0
        assert forked.getvalue() == serial.getvalue(), jobs
    _no_child_left()


@pytest.mark.parametrize("worker", [0, 1, 2])
def test_worker_moves_to_its_own_cpu_then_frees_them_all(worker, monkeypatch):
    # worker i asks for the i-th usable CPU alone, then for every usable CPU,
    # before its first prime; run in process, with os._exit recorded
    usable = {1, 4, 6}
    calls = []
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(usable), raising=False)
    monkeypatch.setattr(harness.os, "sched_setaffinity",
                        lambda pid, cpus: calls.append((pid, set(cpus))), raising=False)
    monkeypatch.setattr(harness, "check_prime", lambda p, cfg: calls.append(p) or [])
    monkeypatch.setattr(harness.os, "_exit", lambda code: calls.append(f"exit {code}"))
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb"):
        harness._run_share([7, 13], RunConfig(pmin=7, pmax=13), write_fd, worker)
    assert calls == [(0, {sorted(usable)[worker]}), (0, usable), 7, 13, "exit 0"]


@pytest.mark.parametrize("host", ["refused", "missing"])
def test_unplaced_workers_sweep_all_the_same(host, monkeypatch):
    # a host that refuses every placement, or has no call to make one: each
    # worker stays where it was forked and the report is the serial one
    _usable_cores(monkeypatch, 3)
    if host == "refused":
        def refuse(pid, cpus):
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(harness.os, "sched_setaffinity", refuse, raising=False)
    else:
        monkeypatch.delattr(harness.os, "sched_setaffinity", raising=False)
    base = dict(pmin=7, pmax=60, checks=frozenset(["thm1", "psi"]), fmt="json")
    serial = io.StringIO()
    assert run_and_report(RunConfig(**base, jobs=1), stream=serial) == 0
    for jobs in (2, 3):
        forked = io.StringIO()
        assert run_and_report(RunConfig(**base, jobs=jobs), stream=forked) == 0
        assert forked.getvalue() == serial.getvalue(), jobs
    _no_child_left()


def test_tag_selection_changes_no_row():
    # each tag alone gives exactly its rows of the all-tag run, in CHECKS
    # order, and so does each tag set below: the headline, the omega ladders
    # with the lemma form and Table 3 (shared term groups), every power-sum
    # form (shared blocks), and kummer beside table3 or zero-exprs (kummer
    # differences the divided set, so the set it builds is the one they read).
    # So a subset report is the all-check report filtered, and CI pins only
    # all-check reports
    primes = enumerate_primes(2, 120)

    def rows(tags):
        cfg = RunConfig(2, 120, frozenset(tags))
        return [row._replace(elapsed=0.0) for p in primes for row in check_prime(p, cfg)]

    every = rows(CHECK_TAGS)
    sets = (["thm1", "thm2", "thm3"], ["thm1", "thm2", "lemmas", "table3"],
            ["thm3", "props", "lemmas"], ["kummer", "table3"], ["kummer", "zero-exprs"])
    for tags in (*([tag] for tag in CHECK_TAGS), *sets):
        assert rows(tags) == [row for row in every if row.tag in tags], tags


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
    assert (captured.out + captured.err).count("2 checks, 2 passed") == 1
    assert "2 checks, 2 passed" in captured.out

    cfg_json = RunConfig(pmin=7, pmax=11, checks=frozenset(["thm1"]), fmt="json")
    assert run_and_report(cfg_json) == 0
    captured = capsys.readouterr()
    assert "2 checks, 2 passed" not in captured.out
    assert captured.err.count("2 checks, 2 passed") == 1


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_broken_pipe_exits_1_quietly(capsys):
    cfg = RunConfig(pmin=7, pmax=40, checks=frozenset(["thm1"]), fmt="csv")
    assert run_and_report(cfg, stream=_ClosedPipe()) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_reader_leaving_early_stops_a_forked_sweep(monkeypatch, capsys):
    # the reader is gone at the first row: each worker, asleep a second per
    # prime over seven primes, is killed and reaped rather than waited for
    def slow(p, cfg):
        time.sleep(1)
        return [CheckResult(p, "psi", "slow", "1", "1", "7", passed=True)]

    monkeypatch.setattr(harness, "check_prime", slow)
    _usable_cores(monkeypatch, 2)
    cfg = RunConfig(pmin=7, pmax=60, checks=frozenset(["psi"]), jobs=2, fmt="json")
    started = time.monotonic()
    assert run_and_report(cfg, stream=_ClosedPipe()) == 1
    assert time.monotonic() - started < 4
    assert "Traceback" not in capsys.readouterr().err
    _no_child_left()


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_memory_follows_the_workers_not_the_primes(jobs, monkeypatch):
    # 50 rows of about 2 KB per prime: a sweep that held its rows would hold
    # over 20 MB at 193 primes, where a streamed one holds a prime's rows at
    # a time, at 50 primes and at 193 alike
    def fat(p, cfg):
        return [CheckResult(p, "psi", f"row-{i}", f"{p}.{i}".ljust(2000, "7"), "1", "7",
                            passed=True) for i in range(50)]

    monkeypatch.setattr(harness, "check_prime", fat)
    _usable_cores(monkeypatch, 2)
    peaks = []
    for pmax in (250, 1200):
        cfg = RunConfig(pmin=7, pmax=pmax, checks=frozenset(["psi"]), jobs=jobs, fmt="json")
        with open(os.devnull, "w") as sink:
            tracemalloc.start()
            try:
                assert run_and_report(cfg, stream=sink) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert max(peaks) < 2 * 2**20, peaks
    _no_child_left()


def test_enumerate_primes_memory_follows_window():
    lo, hi = P_LIMIT - 1000, P_LIMIT
    tracemalloc.start()
    try:
        primes = enumerate_primes(lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert len(primes) == 74
    odd = range(lo + 1, hi + 1, 2)
    assert primes == [n for n in odd if all(n % d for d in range(3, int(n**0.5) + 1, 2))]


def test_enumerate_primes_stops_at_primality_bound():
    # P_LIMIT is the top of the window: 262139 is the last prime below it
    assert enumerate_primes(P_LIMIT - 10, P_LIMIT) == [262139]
    with pytest.raises(ValueError, match=f"at most {P_LIMIT}"):
        enumerate_primes(P_LIMIT - 10, P_LIMIT + 1)
    assert main(["verify", "--pmin", "7", "--pmax", str(P_LIMIT + 1)]) == 2


@pytest.mark.parametrize("p", [262147, 10**30], ids=["least-prime-above", "10^30"])
def test_every_entry_refuses_p_above_the_window(p):
    # 262147 is the least prime above P_LIMIT; each entry that takes p
    # refuses it, and a p far above, by the window rule and at once
    entries = {
        "is_prime": lambda: is_prime(p),
        "enumerate_primes": lambda: enumerate_primes(p, p),
        "make_modulus": lambda: make_modulus(p, 1),
        "BernoulliEngine": lambda: BernoulliEngine(p),
        "qtilde_sums": lambda: oracles.qtilde_sums(p, 1),
        "factorial_mod": lambda: oracles.factorial_mod(p, 1),
    }
    for name, entry in entries.items():
        started = time.perf_counter()
        with pytest.raises(ValueError, match=f"at most {P_LIMIT}"):
            entry()
        assert time.perf_counter() - started < 0.5, name


def test_jobs_clamped_to_primes_and_cores(monkeypatch):
    # every worker is forked at once, so the count is clamped to the primes
    # and the cores; the fork seam records it and yields each prime's rows
    # in-process
    created = []

    def serial_fork(primes, cfg, workers):
        created.append(workers)
        return (check_prime(p, cfg) for p in primes)

    monkeypatch.setattr(harness, "_forked_sweep", serial_fork)
    base = dict(pmin=7, pmax=60, checks=frozenset(["thm1", "psi"]), fmt="json")
    serial = io.StringIO()
    assert run_and_report(RunConfig(**base, jobs=1), stream=serial) == 0
    assert created == []
    # 14 primes in [7, 60]; the cores are the CPUs the process may run on
    # (of cpu_count, which counts them all), or cpu_count, which may be None,
    # where the platform has no affinity set (usable None)
    cases = ((4, 4, 100000, 4), (4, 4, 3, 3), (64, 64, 100000, 14), (2, 8, 8, 2),
             (None, None, 8, None), (None, 4, 8, 4))
    for usable, count, jobs, want in cases:
        monkeypatch.setattr(harness.os, "cpu_count", lambda: count)
        if usable is None:
            monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        else:
            _usable_cores(monkeypatch, usable)
        buf = io.StringIO()
        assert run_and_report(RunConfig(**base, jobs=jobs), stream=buf) == 0
        assert buf.getvalue() == serial.getvalue()
        assert (created.pop() if created else None) == want, (usable, count, jobs)


def test_forked_sweep_warns_nothing(monkeypatch):
    # Python 3.12+ warns when a process with threads forks, and reports the
    # warning even under -W error without raising it; the sweep must fork
    # from a single thread
    _usable_cores(monkeypatch, 2)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        cfg = RunConfig(pmin=7, pmax=30, checks=frozenset(["psi"]), jobs=2)
        assert run_and_report(cfg, stream=io.StringIO()) == 0
    assert [str(w.message) for w in seen] == []
    _no_child_left()


@pytest.mark.parametrize("fault", ["exit", "truncated"])
def test_dead_worker_is_one_error_line(fault, monkeypatch, capsys, tmp_path):
    # a worker that dies at p = 31, or whose frames are cut short, ends the
    # sweep with exit 2 and one error line, leaves an existing report as it
    # was, no new report at a fresh path, no part file and no child behind
    if fault == "exit":
        direct = harness.check_prime

        def dying(p, cfg):
            if p == 31:
                os._exit(3)
            return direct(p, cfg)

        monkeypatch.setattr(harness, "check_prime", dying)
    else:
        # each frame's rows lose their last 5 bytes, and its length says so
        def cut(value):
            return marshal.dumps(value)[:-5] if isinstance(value, list) else marshal.dumps(value)

        monkeypatch.setattr(harness, "marshal", types.SimpleNamespace(
            dumps=cut, load=marshal.load, loads=marshal.loads))
    _usable_cores(monkeypatch, 2)
    out = tmp_path / "report.json"
    out.write_text("kept\n")
    for path in (out, tmp_path / "fresh.json"):
        argv = ["verify", "--pmin", "7", "--pmax", "60", "--checks", "psi", "--jobs", "2",
                "--format", "json", "--out", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: worker "), err
        # the report is written only once the sweep ends
        assert out.read_text() == "kept\n"
        assert os.listdir(tmp_path) == ["report.json"]
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
    _usable_cores(monkeypatch, 2)
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
    _usable_cores(monkeypatch, 2)
    assert main(["verify", "--pmin", "7", "--pmax", "60", "--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert err == "error: [Errno 11] Resource temporarily unavailable\n"
    _no_child_left()


def test_psi_evaluates_the_power_sums_once(monkeypatch):
    # one evaluation, at the top precision, for the one row; the evaluation
    # at each lower precision is that value reduced, so no lower row is needed
    calls = []
    direct = formulas.wilson_from_power_sums

    def counted(sums):
        calls.append((sums[0].p, len(sums)))
        return direct(sums)

    monkeypatch.setattr(formulas, "wilson_from_power_sums", counted)
    cfg = RunConfig(pmin=3, pmax=101, checks=frozenset(["psi"]))
    for p in (3, 5, 7, 11, 101):
        calls.clear()
        run = PrimeRun(p)
        rows = harness._check_psi(run)
        top = min(6, p - 1)
        assert run.top == top and len(run.sums) == top, p
        assert calls == [(p, top)], p
        [(case, _, rhs)] = rows
        assert case == f"wilson-r={top}" and rhs == direct(run.sums), p
        assert all(direct(run.sums[:r]) == rhs.reduce_to(r) for r in range(1, top)), p
        assert all(r.passed for r in check_prime(p, cfg))


def test_every_divided_set_row_can_fail():
    # with random divided values and power sums in place of the true ones,
    # every row whose closed form is built on either must fail for some draw,
    # and no row may be a reduction of another: the pairs where one row's
    # (lhs, rhs) is the other's mod the smaller modulus on every draw are
    # exactly the pairs named below
    rng = random.Random(2510)
    drawn_tags = {"thm1", "thm2", "thm3", "props", "lemmas", "psi", "kummer", "zero-exprs",
                  "table3"}
    failed: dict[int, dict[tuple[str, str], bool]] = {}
    drawn: dict[tuple[str, str], list[tuple[int, int, int]]] = {}
    for p in (11, 13):
        failed[p] = {}
        # drawn family by family, n ascending
        spec = sorted(set_spec(6).items(), key=lambda item: item[0][::-1])
        for _ in range(4):
            bset = {key: Residue(rng.randrange(p**r), make_modulus(p, r)) for key, r in spec}
            run = PrimeRun(p)
            run.__dict__["bset"] = bset
            run.__dict__["sums"] = tuple(Residue(rng.randrange(p**run.top),
                                                 make_modulus(p, run.top)) for _ in range(run.top))
            for tag, _, runner in CHECKS:
                if tag in drawn_tags:
                    for case, lhs, rhs in runner(run):
                        failed[p][(tag, case)] = failed[p].get((tag, case), False) or lhs != rhs
                        drawn.setdefault((tag, case), []).append(
                            (lhs.value, getattr(rhs, "value", rhs), lhs.modulus.value))

    def reduces(draws, other_draws):
        # on every draw, both sides agree mod the smaller of the two moduli
        return all(a % m == b % m and x % m == y % m
                   for (a, x, m_a), (b, y, m_b) in zip(draws, other_draws)
                   for m in [min(m_a, m_b)])

    flagged = {(key, other) for (key, draws), (other, other_draws)
               in itertools.combinations(sorted(drawn.items()), 2)
               if reduces(draws, other_draws)}
    # the certificate's relations between two rows that hold with every
    # y_{d,i} free, no kummer row assumed: each power sum's two printed
    # displays for n < level, the (p-1)-lead lemma form against props' n=5
    # form, and each n=1 form mod p^6 against each mod p^5.  Those n=1 rows
    # stay: at p = 7 the p^5 row is the only n=1 check, and dropping it from
    # p = 11 on would add a branch to _power_sums.
    free = {depth: {(d, 0) for _, d in set_spec(depth)} for depth in MIN_P}
    relations = list(kummer_relations())
    unimplied = kummer_certificate(relations, free)
    pairs = [tuple(sorted(tuple(side.split(" ", 1)) for side in name.split(" - ")))
             for name, *_ in relations if name not in unimplied]
    assert len(pairs) == 14 and all(side in drawn for pair in pairs for side in pair)
    assert flagged == set(pairs)
    for p, ever in failed.items():
        assert len(ever) == 44  # 43 rows on the divided set and psi's one
        assert [key for key, fails in ever.items() if not fails] == [], p


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
    assert set(readers) == {"thm1", "thm2", "thm3", "props", "lemmas", "kummer", "zero-exprs",
                            "table3"}
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


@pytest.mark.parametrize("p", [7, 11, 101, 1009])
def test_kummer_rows_read_the_filled_set_alone(p, monkeypatch):
    # on a prime whose divided set is built, the kummer check computes no
    # divided value: it calls neither bnpd nor the engine, and its rows are
    # the scan evaluator's differences on the set's families, case for case
    families = [(p - 1 - d, r - 1) for (n, d), r in set_spec(depths(p)[-1]).items() if n == 1]
    want = [(f"r={r}-n={n}", value, 0)
            for r, n, value in bernoulli.kummer_differences(p, BernoulliEngine(p), families)]
    run = PrimeRun(p)
    run.__dict__["bset"] = bernoulli.divided_set(p)

    def refused(*args, **kwargs):
        raise AssertionError("the kummer check computed a divided value")

    monkeypatch.setattr(bernoulli, "bnpd", refused)
    for name in ("__init__", "pb_value", "power_sum", "_column_pass"):
        monkeypatch.setattr(BernoulliEngine, name, refused)
    assert harness._check_kummer(run) == want


#: Even starts off the divided set's families, which no display reads,
#: taken at orders 1..3 so that the engine is run on indices the sweep's
#: windows never reach.  ``wilsonq kummer`` scans every even start.
KUMMER_SAMPLE = (4, 10, 16, 22, 34, 50, 98, 124, 156, 178, 200)


def test_kummer_differences_evaluate_each_index_once(monkeypatch):
    # each distinct index is one bnpd call, at the highest order reading it;
    # at p = 101 the start 98 is also the b2 family's, and its window is one
    # row per r, while at p = 1009 no sampled start meets a family
    calls = []
    direct = bernoulli.bnpd

    def counted(m, modulus, engine=None):
        calls.append((m, modulus.r))
        return direct(m, modulus, engine)

    monkeypatch.setattr(bernoulli, "bnpd", counted)
    for p, rows, indices in ((101, 39, 48), (1009, 42, 56)):
        calls.clear()
        h = p - 1
        # the sampled windows, and the families from b(1), b2(1), b4(1) at depth 6
        windows = [(n, 3) for n in KUMMER_SAMPLE] + [(h, 5), (h - 2, 3), (h - 4, 1)]
        found = bernoulli.kummer_differences(p, BernoulliEngine(p), windows)
        assert len(found) == len({(r, n) for r, n, _ in found}) == rows, p
        reads = {}
        for r, n, value in found:
            assert value.value == 0 and value.precision == r, (p, r, n)
            for index in range(n, n + r * h + 1, h):
                reads[index] = max(reads.get(index, 0), r)
        assert len(calls) == len(reads) == indices, p
        assert dict(calls) == reads, p


@pytest.mark.parametrize("p", [7, 11, 13, 17, 23, 101, 103])
def test_kummer_rows_are_each_one_case(p):
    # at each of these primes a sampled start is also the first index of a
    # family of the divided set, and the window they share is one row per r,
    # both from the windows together and from the sweep's own rows
    run = PrimeRun(p)
    families = [(p - 1 - d, r - 1) for (n, d), r in set_spec(run.levels[-1]).items() if n == 1]
    assert {n for n, _ in families} & set(KUMMER_SAMPLE), p
    found = bernoulli.kummer_differences(p, run.engine, [(n, 3) for n in KUMMER_SAMPLE] + families)
    assert len(found) == len({(r, n) for r, n, _ in found}), p
    cases = [case for case, _, _ in harness._check_kummer(run)]
    assert len(cases) == len(set(cases)), p


@pytest.mark.parametrize("fault", ["none", "top", "every", 3, 4, 5])
def test_shared_power_table_fault_is_seen(fault, monkeypatch):
    # qtilde_sums and the engine share residues.power_table; a fault at
    # v = 6 that both sides see must still fail every thm3 and props row:
    # p^5 added at e = p-1 only or at every e, or the entry lifted to
    # (6 + p^k)^e.  The 220 failed rows rest on the engine taking
    # w = v^(p-1), v^(p-7) and v^(p-3) from three separate power_table calls,
    # as test_divided_set_builds_few_tables pins, and on the oracle taking
    # its one table at e = p-1, as test_qtilde_sums_builds_one_table pins
    direct = bernoulli.power_table

    def faulted(p, e, mod):
        table = direct(p, e, mod)
        if fault == "every" or fault == "top" and e == p - 1:
            table[5] = (table[5] + p**5) % mod
        elif isinstance(fault, int):
            table[5] = pow(6 + p**fault, e, mod)
        return table

    monkeypatch.setattr(bernoulli, "power_table", faulted)
    monkeypatch.setattr(oracles, "power_table", faulted)
    cfg = RunConfig(pmin=11, pmax=43, checks=frozenset({"thm3", "props"}))
    rows = [row for p in enumerate_primes(11, 43) for row in check_prime(p, cfg)]
    assert len(rows) == 220
    assert sum(not row.passed for row in rows) == (0 if fault == "none" else 220)

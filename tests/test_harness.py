import io
import json

import pytest

from wilsonq import harness
from wilsonq.harness import (
    CHECK_TAGS,
    RunConfig,
    check_prime,
    enumerate_primes,
    run_and_report,
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

    monkeypatch.setitem(harness._CHECK_RUNNERS, "thm1", boom)
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


def test_worker_count_independence():
    base = dict(pmin=7, pmax=60, checks=frozenset(["thm1", "thm3", "psi"]), fmt="json")
    buf1, buf2 = io.StringIO(), io.StringIO()
    assert run_and_report(RunConfig(**base, jobs=1), stream=buf1) == 0
    assert run_and_report(RunConfig(**base, jobs=2), stream=buf2) == 0
    assert buf1.getvalue() == buf2.getvalue()


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

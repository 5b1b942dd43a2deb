"""Self-tests of the benchmark on tiny ranges.

    python3 -m pytest perfbench -q

They show that the correctness gate can fail, that the tracer sees calls
made through every alias of a function, and that tracing changes no report
byte.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_ALL = run.Workload(run.ALL_TAGS, 7, 40, 1)
TINY_HEADLINE = run.Workload("thm1,thm2,thm3", 7, 60, 1)


@pytest.fixture
def runner(tmp_path):
    return run.Runner(ROOT, tmp_path)


@pytest.fixture
def tiny_report(runner):
    sample = runner.verify(TINY_ALL, 1, TINY_ALL.pmin, TINY_ALL.pmax)
    assert sample.exit_code == 0
    return sample.rows


def _spot(w: run.Workload, primes):
    return {p: gate.spot_values(p, w.tags) for p in primes}


def test_gate_passes_a_clean_report(tiny_report):
    primes = gate.primes_in(7, 40)
    verdict = gate.check_report(tiny_report, primes, TINY_ALL.tags, _spot(TINY_ALL, primes))
    assert verdict.failed == 0, verdict.problems
    assert verdict.attempted == len(tiny_report)


def test_gate_fails_on_one_flipped_row(tiny_report):
    rows = json.loads(json.dumps(tiny_report))
    victim = next(r for r in rows if r["tag"] == "kummer")
    victim["pass"] = False
    verdict = gate.check_report(rows, gate.primes_in(7, 40), TINY_ALL.tags)
    assert verdict.failed == 1


def test_gate_fails_when_one_primes_rows_are_dropped(tiny_report):
    rows = [r for r in tiny_report if r["p"] != 23]
    verdict = gate.check_report(rows, gate.primes_in(7, 40), TINY_ALL.tags)
    assert verdict.failed == len(TINY_ALL.tags)


def test_gate_fails_on_a_wrong_spot_checked_value(tiny_report):
    rows = json.loads(json.dumps(tiny_report))
    for r in rows:
        if r["p"] == 13 and r["tag"] == "thm3" and r["case"] == "n=2-mod-p^6":
            r["lhs"] = r["rhs"] = str(int(r["lhs"]) + 13**5)
    verdict = gate.check_report(rows, gate.primes_in(7, 40), TINY_ALL.tags, _spot(TINY_ALL, [13]))
    assert verdict.failed == 1


def test_spot_values_match_the_program():
    sys.path.insert(0, str(ROOT / "src"))
    from wilsonq import factorial_mod, qtilde

    for p in (7, 11, 101):
        assert gate.factorial_mod(p, 7) == factorial_mod(p, 7).value
        for n in range(1, 7):
            assert gate.qtilde(n, p, 6) == qtilde(n, p, 6).value


def test_tracer_binds_every_alias():
    sys.path.insert(0, str(ROOT / "src"))
    import wilsonq.cli  # noqa: F401
    import tracer

    saved = {name: dict(vars(mod)) for name, mod in sys.modules.items()
             if name == "wilsonq" or name.startswith("wilsonq.")}
    try:
        tracer.Recorder().install()
        mods = {name.rsplit(".", 1)[-1]: sys.modules[name] for name in saved}
        aliases = {
            "bnpd": ("bernoulli", "harness", "formulas"),
            "qtilde": ("oracles", "formulas"),
            "divided_set": ("bernoulli", "harness"),
            "forward_difference": ("differences", "harness", "formulas"),
        }
        for fn, homes in aliases.items():
            bound = {getattr(mods[home], fn) for home in homes}
            assert len(bound) == 1, fn
            assert bound.pop() is not saved[f"wilsonq.{homes[0]}"][fn], fn
    finally:
        for name, namespace in saved.items():
            vars(sys.modules[name]).update(namespace)


def test_traced_counts_and_report_identity(runner):
    w = TINY_HEADLINE
    plain = runner.verify(w, 1, w.pmin, w.pmax)
    traced = runner.verify(w, 1, w.pmin, w.pmax, traced=True)
    assert plain.exit_code == traced.exit_code == 0
    assert traced.digest == plain.digest
    counts = spans.counts(spans.load(runner.out_dir / "spans.json"))
    primes = gate.primes_in(w.pmin, w.pmax)
    assert counts["bernoulli.bnpd.calls"] == 9 + 12 * sum(1 for p in primes if p >= 11)
    assert counts["bernoulli.bnpd.repeats"] == 0
    assert counts["harness.rows"] == len(plain.rows)


def test_traced_run_repeats_its_counts(runner):
    tally, metrics, detail = run.measure_traced(TINY_ALL, 5, 0, runner)
    assert tally.failed == 0, tally.problems
    assert len(detail["traced"]) >= run.MIN_TRACED
    assert metrics["harness.rows"] == detail["counts"]["harness.rows"] > 0
    assert metrics["bernoulli.self_s"] > 0
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}


def test_end_to_end_run_with_a_twin(runner):
    w = run.Workload(run.ALL_TAGS, 7, 40, 2)
    tally, metrics, detail = run.measure(w, 3, 0, runner)
    assert tally.failed == 0, tally.problems
    assert len(detail["sweep_s"]) >= run.MIN_SWEEPS
    assert all(value > 0 for value in metrics.values())
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "headline",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""What the benchmark under ``perfbench/`` takes from the program, read from
its files without importing or editing anything there but ``gate.py``, which
imports no program code: the check tags it asks for, the rows its gate
scores and spot-checks, and the names its tests import from ``wilsonq``.
A change that drops one of them fails here rather than in the benchmark."""
import ast
import importlib.util
import io
import json
import sys
from pathlib import Path

import wilsonq
from wilsonq.harness import CHECK_TAGS, RunConfig, run_and_report

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text())


def _bench_tags():
    """``spans.TAGS``, the tags of the benchmark's all-check workloads."""
    [value] = [node.value for node in ast.walk(_tree("spans.py")) if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["TAGS"]]
    return ast.literal_eval(value)


def _imported_modules(name):
    return {alias.name if isinstance(node, ast.Import) else node.module
            for node in ast.walk(_tree(name)) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names}


def test_every_benchmark_tag_is_a_check():
    assert set(_bench_tags()) <= CHECK_TAGS


def test_the_gate_passes_a_sweep_of_every_benchmark_tag(monkeypatch):
    assert not any(m.split(".")[0] == "wilsonq" for m in _imported_modules("gate.py"))
    spec = importlib.util.spec_from_file_location("perfbench_gate", PERFBENCH / "gate.py")
    gate = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gate)  # its dataclasses look it up
    spec.loader.exec_module(gate)

    tags = _bench_tags()
    report = io.StringIO()
    assert run_and_report(RunConfig(7, 60, frozenset(tags), fmt="json"), report) == 0
    rows = json.loads(report.getvalue())
    spot = {p: gate.spot_values(p, tags) for p in (7, 11, 59)}
    # the factorial rows of thm1 and thm2 and the thm3 rows, at each depth
    assert ("thm2", "factorial-mod-p^7") in spot[11]
    verdict = gate.check_report(rows, gate.primes_in(7, 60), tags, spot)
    assert (verdict.attempted, verdict.failed, verdict.problems) == (len(rows), 0, [])


def test_the_names_the_benchmark_imports_stay_exported():
    names = {alias.name for node in ast.walk(_tree("test_perfbench.py"))
             if isinstance(node, ast.ImportFrom) and node.module == "wilsonq"
             for alias in node.names}
    assert names == {"factorial_mod", "qtilde"}
    assert all(callable(getattr(wilsonq, name)) for name in names)

"""Per-layer metrics from one span file written by ``tracer.py``."""
from __future__ import annotations

import json

from tracer import LAYERS

#: Check tags in the order the harness runs them.
TAGS = ("thm1", "thm2", "thm3", "props", "lemmas", "psi", "kummer", "zero-exprs", "table3")

#: Functions whose total (outermost-call) time is reported as `<key>.s`.
TIMED = ("bernoulli.divided_set", "oracles.q_power_sum", "harness.write_report")
#: Functions whose call count is reported as `<key>.calls`.
COUNTED = ("bernoulli.bnpd", "bernoulli.bernoulli_times_p", "oracles.qtilde",
           "oracles.factorial_mod", "differences.forward_difference")
#: Functions whose repeated-argument share is reported as `<key>.repeat_ratio`.
REPEATED = ("bernoulli.bnpd", "oracles.qtilde", "oracles.factorial_mod")

#: Layers whose self time is reported as `<layer>.self_s`.
SELF_TIMED = ("bernoulli", "oracles", "formulas", "differences", "polys", "harness")


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def layer_times(doc: dict) -> tuple[dict[str, float], dict[str, float]]:
    """(self seconds per layer, outermost-call seconds per layer.function).

    A span's self time is its duration minus the durations of its direct
    children; summing self times never counts an interval twice.  A
    function's total counts only calls with no caller of the same function
    above them, so recursion is not counted twice either.
    """
    spans = doc["spans"]
    child_time = [0.0] * len(spans)
    for _sid, parent, _layer, _fn, _prime, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = {layer: 0.0 for layer in LAYERS.values()}
    total_s: dict[str, float] = {}
    for sid, parent, layer, fn, _prime, start, end in spans:
        self_s[layer] += (end - start) - child_time[sid]
        up = parent
        while up >= 0 and spans[up][2:4] != [layer, fn]:
            up = spans[up][1]
        if up < 0:
            key = f"{layer}.{fn}"
            total_s[key] = total_s.get(key, 0.0) + (end - start)
    return self_s, total_s


def counts(doc: dict) -> dict[str, int]:
    """The deterministic counts of one traced run: calls, repeats and rows."""
    calls, repeats = doc["calls"], doc["repeats"]
    out = {f"{key}.calls": calls.get(key, 0) for key in COUNTED}
    out.update({f"{key}.repeats": repeats.get(key, 0) for key in REPEATED})
    out["formulas.calls"] = sum(n for key, n in calls.items() if key.startswith("formulas."))
    out["harness.rows"] = doc["rows"]
    return out


def count_metrics(found: dict[str, int]) -> dict[str, float]:
    """Count metrics by name; each repeat ratio's base is the matching
    `.calls` count, which is reported too."""
    out = {f"{key}.calls": found[f"{key}.calls"] for key in COUNTED}
    for key in REPEATED:
        calls = found[f"{key}.calls"]
        out[f"{key}.repeat_ratio"] = found[f"{key}.repeats"] / calls if calls else 0.0
    out["formulas.calls"] = found["formulas.calls"]
    out["harness.rows"] = found["harness.rows"]
    return out


def timings(doc: dict) -> dict[str, float]:
    """The timed per-layer metrics of one traced run, in seconds."""
    self_s, total_s = layer_times(doc)
    out = {f"{layer}.self_s": self_s[layer] for layer in SELF_TIMED}
    for key in TIMED:
        out[f"{key}.s"] = total_s.get(key, 0.0)
    for tag in TAGS:
        out[f"harness.tag.{tag}.s"] = doc["tag_seconds"].get(tag, 0.0)
    return out

"""Repeat the benchmark in interleaved rounds and report each metric's spread.

    python3 perfbench/rounds.py --rounds 10 --first-seed 100 --label a
    python3 perfbench/rounds.py --rounds 10 --first-seed 200 --label b --compare perfbench/out/rounds-a.json
    python3 perfbench/rounds.py --rounds 3 --first-seed 300 --label t --trace 1

Round i runs every workload once with seed first-seed + i, rotating which
workload goes first, so slow drift of the host spreads over all workloads
alike.  For each end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
next to the bound in BENCHMARK.json.  With ``--compare`` it also prints how
far this set's median is from the other set's, as a share of the other's.
With ``--trace 1`` it prints the per-layer metrics instead, and fails unless
every count metric (calls, repeat ratios, rows) reads the same in every run
of a workload: this is how counts are shown to repeat from run to run.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--label", default="rounds")
    parser.add_argument("--compare", default=None, help="an earlier rounds-<label>.json")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    results: dict[str, list[dict]] = {name: [] for name in names}
    for i in range(args.rounds):
        seed = args.first_seed + i
        for name in names[i % len(names):] + names[: i % len(names)]:
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            result.update(seed=seed, exit_code=proc.returncode)
            results[name].append(result)
            print(f"round {i} {name} seed {seed}: exit {proc.returncode} "
                  f"correct {result.get('correct')} failed {result.get('failed')}", flush=True)

    out = Path("perfbench/out") / f"rounds-{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))

    other = json.loads(Path(args.compare).read_text()) if args.compare else None
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(f"{'workload':14s} {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}" + (f" {'vs other':>9s}" if other else ""))
    for name in names:
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in results[name]
                      if metric["name"] in r.get("metrics", {})]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = metric.get("bound")
            line = (f"{name:14s} {metric['name']:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                    f"{spread:8.4f} {bound if bound is not None else '-':>6}")
            if other:
                old = [r["metrics"][metric["name"]]["value"] for r in other.get(name, [])
                       if metric["name"] in r.get("metrics", {})]
                if len(old) >= 2:
                    old_med = statistics.quantiles(old, n=4)[1]
                    line += f" {(med - old_med) / old_med if old_med else float('nan'):+9.4f}"
            print(line)
    bad = [r for rs in results.values() for r in rs if r.get("exit_code") != 0 or not r.get("correct")]
    if args.trace:
        counted = [m["name"] for m in metrics
                   if m["unit"] == "count" or m["name"].endswith(".repeat_ratio")]
        for name in names:
            seen = {json.dumps({k: r["metrics"][k]["value"] for k in counted}, sort_keys=True)
                    for r in results[name] if "metrics" in r}
            if len(seen) > 1:
                print(f"FAIL {name}: count metrics differ between runs")
                bad.append(name)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

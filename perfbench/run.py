"""The wilsonq sweep benchmark.

    python3 perfbench/run.py --workload headline --seed 1 --seconds 35 --trace 0

Run from the repository root.  Every measured command is a fresh
``python3 -m wilsonq.cli verify --format json`` process (or, with
``--trace 1``, the same command under ``perfbench/tracer.py``), so no module
cache carries over from one sample to the next.  Samples repeat until
``--seconds`` have passed; each metric is the median over the samples.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import spans  # noqa: E402

ALL_TAGS = ",".join(spans.TAGS)


@dataclass(frozen=True)
class Workload:
    checks: str
    pmin: int
    pmax: int
    #: Worker processes.  When not 1, the run also makes one untimed sweep at
    #: the other count (1 for timed sweeps, this for traced ones), whose
    #: report must be byte-identical.
    jobs: int

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(self.checks.split(","))


WORKLOADS = {
    "headline": Workload("thm1,thm2,thm3", 7, 700, 1),
    "allchecks": Workload(ALL_TAGS, 7, 350, 1),
    "allchecks-j2": Workload(ALL_TAGS, 7, 350, 2),
}

#: A range holding no prime: a verify run over it is pure set-up.
SETUP_RANGE = (24, 28)
#: Set-up runs per sweep; they are short, so the median needs more of them.
SETUPS_PER_SWEEP = 2
SPOT_PRIMES = 3
MIN_SWEEPS = 3
MIN_TRACED = 2
PROCESS_TIMEOUT_S = 120.0
#: Stop starting samples after this long, whatever --seconds says.
BUDGET_S = 150.0

@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    digest: str | None = None
    rows: list | None = None


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Starts one command at a time and measures its whole process tree."""

    def __init__(self, root: Path, out_dir: Path):
        self.root = root
        self.out_dir = out_dir
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.log = out_dir / "last-command.log"

    def run(self, argv: list[str]) -> Sample:
        """Run to completion; cpu and peak RSS come from wait4, which covers
        the process and every descendant it waited for (the pool workers)."""
        with open(self.log, "w") as log:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=log, start_new_session=True)
            timer = threading.Timer(PROCESS_TIMEOUT_S, _kill_group, (proc.pid,))
            timer.start()
            try:
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
            # The unreaped leader still holds the group id: stop any straggler.
            _kill_group(proc.pid)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Sample(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                      peak_rss_mb=usage.ru_maxrss / 1024.0, exit_code=proc.returncode)

    def verify(self, w: Workload, jobs: int, pmin: int, pmax: int, traced: bool = False) -> Sample:
        report = self.out_dir / "report.json"
        report.unlink(missing_ok=True)
        args = ["verify", "--pmin", str(pmin), "--pmax", str(pmax), "--checks", w.checks,
                "--jobs", str(jobs), "--format", "json", "--out", str(report)]
        if traced:
            prefix = [sys.executable, str(Path(__file__).with_name("tracer.py")),
                      "--spans", str(self.out_dir / "spans.json"), "--"]
        else:
            prefix = [sys.executable, "-m", "wilsonq.cli"]
        sample = self.run(prefix + args)
        if report.exists():
            data = report.read_bytes()
            sample.digest = hashlib.sha256(data).hexdigest()
            try:
                sample.rows = json.loads(data)
            except ValueError:
                sample.rows = None
        return sample


class Sweeps:
    """Gate every sweep report and hold them to one digest."""

    def __init__(self, w: Workload, seed: int, tally: gate.Verdict):
        self.w = w
        self.tally = tally
        self.primes = gate.primes_in(w.pmin, w.pmax)
        rng = random.Random(seed)
        chosen = sorted(rng.sample(self.primes, min(SPOT_PRIMES, len(self.primes))))
        self.spot = {p: gate.spot_values(p, w.tags) for p in chosen}
        self.digest: str | None = None

    def check(self, sample: Sample, label: str) -> None:
        if sample.rows is None:
            pairs = len(self.primes) * len(self.w.tags)
            self.tally.add(pairs, pairs, f"{label}: no readable report (exit {sample.exit_code})")
            return
        verdict = gate.check_report(sample.rows, self.primes, self.w.tags, self.spot)
        problems = [f"{label}: {reason}" for reason in verdict.problems]
        failed = verdict.failed
        if sample.exit_code != 0:
            failed = min(failed + 1, verdict.attempted)
            problems.append(f"{label}: exit code {sample.exit_code}")
        if self.digest is None:
            self.digest = sample.digest
        elif sample.digest != self.digest:
            failed = verdict.attempted
            problems.append(f"{label}: report digest {sample.digest} differs from {self.digest}")
        self.tally.add(verdict.attempted, failed, *problems)


def _check_setup(sample: Sample, tally: gate.Verdict) -> None:
    if sample.exit_code == 0 and sample.rows == []:
        tally.add(1, 0)
    else:
        tally.add(1, 1, f"set-up run: exit {sample.exit_code}, report {sample.rows!r}")


def measure(w: Workload, seed: int, seconds: float, runner: Runner) -> tuple[gate.Verdict, dict, dict]:
    """End-to-end metrics: set-up and sweep runs interleaved in a seeded order."""
    tally = gate.Verdict()
    sweeps = Sweeps(w, seed, tally)
    rng = random.Random(seed + 1)
    setups: list[Sample] = []
    timed: list[Sample] = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if elapsed >= BUDGET_S or (elapsed >= seconds and len(timed) >= MIN_SWEEPS):
            break
        order = ["setup"] * SETUPS_PER_SWEEP + ["sweep"]
        rng.shuffle(order)
        for kind in order:
            if kind == "setup":
                sample = runner.verify(w, w.jobs, *SETUP_RANGE)
                _check_setup(sample, tally)
                setups.append(sample)
            else:
                sample = runner.verify(w, w.jobs, w.pmin, w.pmax)
                sweeps.check(sample, f"sweep {len(timed)}")
                timed.append(sample)
            sample.rows = None  # reports are large; the digest is kept
    if w.jobs != 1:
        sweeps.check(runner.verify(w, 1, w.pmin, w.pmax), "--jobs 1 twin")
    med = statistics.median
    metrics = {
        "setup_s": med(s.wall_s for s in setups),
        "sweep_s": med(s.wall_s for s in timed),
        "cpu_s": med(s.cpu_s for s in timed),
        "core_utilization": med(s.cpu_s / (w.jobs * s.wall_s) for s in timed),
        "peak_rss_mb": med(s.peak_rss_mb for s in timed),
    }
    detail = {
        "setup_s": [s.wall_s for s in setups],
        "sweep_s": [s.wall_s for s in timed],
        "cpu_s": [s.cpu_s for s in timed],
        "peak_rss_mb": [s.peak_rss_mb for s in timed],
        "report_sha256": sweeps.digest,
        "spot_primes": sorted(sweeps.spot),
    }
    return tally, metrics, detail


def measure_traced(w: Workload, seed: int, seconds: float, runner: Runner) -> tuple[gate.Verdict, dict, dict]:
    """Per-layer metrics: traced and untraced sweeps at --jobs 1, alternated."""
    tally = gate.Verdict()
    sweeps = Sweeps(w, seed, tally)
    rng = random.Random(seed + 1)
    plain: list[float] = []
    traced: list[dict] = []
    first_counts: dict | None = None
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if elapsed >= BUDGET_S or (elapsed >= seconds and len(traced) >= MIN_TRACED):
            break
        order = [False, True]
        rng.shuffle(order)
        for is_traced in order:
            sample = runner.verify(w, 1, w.pmin, w.pmax, traced=is_traced)
            label = f"{'traced' if is_traced else 'untraced'} sweep {len(traced if is_traced else plain)}"
            sweeps.check(sample, label)
            sample.rows = None
            if not is_traced:
                plain.append(sample.wall_s)
                continue
            doc = spans.load(runner.out_dir / "spans.json")
            found = spans.counts(doc)
            if first_counts is None:
                first_counts = found
            elif found != first_counts:
                changed = sorted(k for k in found if found[k] != first_counts.get(k))
                tally.add(1, 1, f"{label}: counts differ between traced runs: {changed}")
            traced.append({"wall_s": sample.wall_s, **spans.timings(doc)})
    if w.jobs != 1:
        sweeps.check(runner.verify(w, w.jobs, w.pmin, w.pmax), f"--jobs {w.jobs} twin")
    med = statistics.median
    metrics = {key: med(t[key] for t in traced) for key in traced[0] if key != "wall_s"}
    metrics.update(spans.count_metrics(first_counts))
    metrics["trace.overhead_ratio"] = med(t["wall_s"] for t in traced) / med(plain)
    detail = {"counts": first_counts, "traced": traced, "untraced_sweep_s": plain,
              "report_sha256": sweeps.digest, "spot_primes": sorted(sweeps.spot)}
    return tally, metrics, detail


def host_info() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "wilsonq" / "cli.py").is_file():
        print(f"error: no wilsonq sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)

    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    w = WORKLOADS[args.workload]
    runner = Runner(root, out_dir)
    measure_fn = measure_traced if args.trace else measure
    tally, values, detail = measure_fn(w, args.seed, args.seconds, runner)
    if set(values) != set(units):
        print(f"error: measured metrics {sorted(set(values) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2

    correct = tally.failed == 0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs": {"checks": w.checks, "pmin": w.pmin, "pmax": w.pmax, "jobs": w.jobs},
        "host": host_info(), "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed, "problems": tally.problems,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "samples": detail,
    }
    with open(out_dir / f"{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# host {json.dumps(record['host'])}")
    for reason in tally.problems:
        print(f"# FAIL {reason}")
    for name, metric in record["metrics"].items():
        print(f"# {name:34s} {metric['value']:>14.6f} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of cryslkit: four seeded workloads, end-to-end metrics, traced layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` a run times the workload's operations with nothing
wrapped and reports the end-to-end metrics listed in BENCHMARK.json: each
kind of operation is timed as the 10th percentile of its repeats, scaled by
the workload's floor task timed after every round (perfbench/README.md says
why). With ``--trace 1`` it alternates an untraced round and a traced round
of the same work and reports the per-layer metrics, including the tracing
overhead. The
last line of stdout is the result object; the line before it holds details
(sample counts, failure ratio, the workload's own metric names, and the
machine). ``--all`` runs every workload in its own process, one after
another, and prints every metric with its unit.

The checkout under test is the one this file lies in: its ``src`` is put
first on the import path and on every child's ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
# Set-ups per run, one after another before the measurement, which uses the
# last; setup_s is their median.
SETUPS = 5
# Each kind of operation is timed as this percentile of its repeats in a run.
KIND_QUANTILE = 0.1
REQUIRED = ("BENCHMARK.json", "src/cryslkit/__init__.py", "corpus", "tests/golden", "tests/oracles.py")


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile: the smallest value with ``share`` of all at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def kind_samples(samples: list) -> list:
    """One sample per kind of operation, timed as the ``KIND_QUANTILE`` of its passing repeats."""
    by_kind: dict[str, list] = {}
    for sample in samples:
        if sample.ok:
            by_kind.setdefault(sample.kind, []).append(sample)
    return [dataclasses.replace(repeats[0], seconds=percentile([s.seconds for s in repeats], KIND_QUANTILE))
            for repeats in by_kind.values()]


def time_metrics(samples: list) -> dict[str, float]:
    """Latency median and 90th percentile, and throughput, of the passing samples."""
    timed = [s for s in samples if s.ok]
    latencies = [1000 * s.seconds for s in timed] or [math.nan]
    return {
        "op_ms_p50": statistics.median(latencies),
        "op_ms_p90": percentile(latencies, 0.9),
        "throughput_per_s": sum(s.items for s in timed) / (sum(s.seconds for s in timed) or math.nan),
    }


def machine() -> dict:
    revision = None
    if (CHECKOUT / ".git").exists():
        done = subprocess.run(["git", "-C", str(CHECKOUT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        revision = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "cryslkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_revision": revision, "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "cpu": cpu}


def measure(workload, seconds: float) -> list[list]:
    """Whole rounds until the time is up and enough operations were timed."""
    rounds, ops = [], 0
    start = time.perf_counter()
    while True:
        rounds.append(workload.round())
        workload.floors.append(workload.floor())
        ops += len(rounds[-1])
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (ops >= workload.min_samples or elapsed >= 3 * seconds):
            return rounds


def measure_traced(workload, seconds: float, spans) -> tuple[list, list[dict]]:
    """Pairs of an untraced and a traced round until the time is up."""
    samples, traced_rounds = [], []
    start = time.perf_counter()
    while True:
        plain = workload.round()
        tracer = spans.Tracer()
        with spans.traced(tracer):
            traced = workload.round(tracer)
        values = spans.summarize(tracer.spans, tracer.counters)
        values.update(workload.trace_extras())
        attributed = sum(values[f"{layer}.self_s"] for layer in spans.LAYERS)
        gap = attributed + values["trace.unattributed_s"] - values["trace.op_s"]
        if abs(gap) > 1e-6 + 1e-9 * len(tracer.spans):
            workload.problems.append(f"layer self times miss the operation time by {gap} s")
        values["trace.overhead"] = values["trace.op_s"] / sum(s.seconds for s in plain)
        values["trace.ops"] = len(traced)
        samples += plain + traced
        traced_rounds.append(values)
        if time.perf_counter() - start >= seconds:
            return samples, traced_rounds


def run_workload(args, declared: dict) -> int:
    sys.path.insert(0, str(SRC))
    import cryslkit

    if not Path(cryslkit.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported {cryslkit.__file__}, not the checkout's {SRC}")
    import spans
    import workloads

    paths = workloads.Paths(CHECKOUT, args.seed)
    child = subprocess.run([sys.executable, "-c", "import cryslkit; print(cryslkit.__file__)"],
                           env=paths.child_env(), capture_output=True, text=True, timeout=60)
    if not Path(child.stdout.strip()).resolve().is_relative_to(SRC):
        raise SystemExit(f"child processes import {child.stdout.strip()!r}, not from {SRC}")

    workload = workloads.WORKLOADS[args.workload](paths)
    setups = []

    try:
        for _ in range(SETUPS):
            workload.close()  # outside the timing: each set-up starts from nothing
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        if args.trace:
            samples, traced_rounds = measure_traced(workload, args.seconds, spans)
        else:
            samples = [s for r in measure(workload, args.seconds) for s in r]
        workload.final_check()
    finally:
        workload.close()
        try:
            paths.work_root.rmdir()
        except OSError:
            pass

    failed = sum(not s.ok for s in samples)
    if args.trace:
        values = {name: statistics.median(r[name] for r in traced_rounds)
                  for name in declared["per_layer"] if name != "trace.rounds"}
        values["trace.rounds"] = len(traced_rounds)
    else:
        who = resource.RUSAGE_CHILDREN if workload.rss_children else resource.RUSAGE_SELF
        floor_s = percentile(workload.floors, KIND_QUANTILE)
        values = time_metrics([dataclasses.replace(k, seconds=k.seconds * workload.floor_ref_s / floor_s)
                               for k in kind_samples(samples)])
        values["peak_rss_mib"] = resource.getrusage(who).ru_maxrss / 1024
        values["setup_s"] = statistics.median(setups)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared[kind].items()}

    for problem in workload.problems[:20]:
        print(problem, file=sys.stderr)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "samples": len(samples),
        "repeats_per_kind": None if args.trace else min(Counter(s.kind for s in samples).values()),
        "as_timed": None if args.trace else time_metrics(samples),
        "floor_ms": None if args.trace else 1000 * floor_s,
        "fail_ratio": failed / len(samples) if samples else 1.0,
        "setups_s": setups, "item": workload.item,
        "aliases": {alias: {"metric": name, "value": values[name]}
                    for alias, name in workload.aliases.items() if not args.trace},
        "machine": machine(),
    }
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": failed == 0 and not workload.problems, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args, names: list[str]) -> int:
    """Every workload in a process of its own; print each metric by name and unit."""
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exit {done.returncode}")
            status = 1
            continue
        *_, details_line, result_line = done.stdout.splitlines()
        details = json.loads(details_line)["details"]
        result = json.loads(result_line)
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_ratio={details['fail_ratio']:g}")
        alias_of = {entry["metric"]: alias for alias, entry in details["aliases"].items()}
        for metric, entry in result["metrics"].items():
            alias = f"  ({alias_of[metric]})" if metric in alias_of else ""
            print(f"   {metric:34} {entry['value']:>16.6g} {entry['unit']}{alias}")
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", help="workload name from BENCHMARK.json")
    which.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (CHECKOUT / p).exists()]
    if missing:
        print(f"{CHECKOUT} is not a cryslkit checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    benchmark = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {kind: {m["name"]: m["unit"] for m in benchmark[kind]}
                for kind in ("end_to_end", "per_layer")}
    names = [w["name"] for w in benchmark["workloads"]]
    if args.all:
        return run_all(args, names)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args, declared)


if __name__ == "__main__":
    sys.exit(main())

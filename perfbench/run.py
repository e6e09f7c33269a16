#!/usr/bin/env python3
"""Repository benchmark: builds perfbench_bin from source and runs workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload runs in its own process. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics BENCHMARK.json declares for
that workload, every one of them; with --trace 1 the workload runs twice,
untraced and then with the benchmark's span recorder on, and the metrics are
the per-layer ones, including overhead.<metric> (traced minus untraced value
of every end-to-end metric); a per-layer metric of a layer the workload does
not call reads 0. Exits 1 when any answer is wrong or any check fails, and 2
when the benchmark cannot run (for instance without the repository's sources).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ["apb_cube", "live_ingest", "scatter_3shard"]
# Every run of one invocation must end within this many seconds.
DEADLINE_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures and builds perfbench_bin; a no-op when it is up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("repository sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            die("build failed: " + " ".join(step))
    binary = os.path.join(BUILD_DIR, "perfbench_bin")
    if not os.path.isfile(binary):
        die("build produced no perfbench_bin")
    return binary


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layer


def run_workload(binary, workload, seed, seconds, trace, deadline):
    """Runs one workload process; returns its record (dict) or None."""
    workdir = os.path.join(WORK_DIR, f"{workload}-{os.getpid()}-{trace}")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--workdir", workdir]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                                text=True, timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = result.stdout.strip().splitlines()
    if not lines:
        print(f"perfbench: {workload} exited {result.returncode} without a record",
              file=sys.stderr)
        return None
    record = json.loads(lines[-1])
    for note in record.get("notes", []):
        print(f"perfbench: {workload}: {note}", file=sys.stderr)
    return record


def describe(workload, result, source):
    """Prints each published metric with its unit and sample count."""
    for name in sorted(result["metrics"]):
        m = result["metrics"][name]
        n = source["metrics"].get(name, {}).get("samples")
        samples = f" (n={n})" if n else ""
        print(f"  {workload:15s} {name:40s} {m['value']:.6g} {m['unit']}{samples}",
              file=sys.stderr)


def publish(records, trace, e2e, layer):
    """Reduces the workload records to the published result object."""
    untraced, traced = records
    wanted = layer if trace else e2e
    source = traced if trace else untraced
    metrics = {}
    for name, m in source["metrics"].items():
        if name in e2e and trace:
            continue
        if name not in wanted:
            die(f"metric {name} is not declared in BENCHMARK.json")
        if m["unit"] != wanted[name]:
            die(f"metric {name} has unit {m['unit']}, BENCHMARK.json says {wanted[name]}")
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    if trace:
        for name, m in untraced["metrics"].items():
            if name in traced["metrics"]:
                overhead = "overhead." + name
                if overhead not in layer:
                    die(f"metric {overhead} is not declared in BENCHMARK.json")
                metrics[overhead] = {"value": traced["metrics"][name]["value"] - m["value"],
                                     "unit": m["unit"]}
    missing = sorted(set(wanted) - set(metrics))
    if missing and not trace:
        die("end-to-end metrics not measured: " + ", ".join(missing), 1)
    if missing:
        # Per-layer metrics of a layer this workload does not call read 0.
        print("perfbench: not exercised by this workload (reported as 0): " +
              ", ".join(missing), file=sys.stderr)
        for name in missing:
            metrics[name] = {"value": 0, "unit": wanted[name]}
    correct = all(r["correct"] for r in records if r is not None)
    attempted = sum(r["attempted"] for r in records if r is not None)
    failed = sum(r["failed"] for r in records if r is not None)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    binary = build()
    e2e, layer = declared()
    start = time.time()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for workload in workloads:
        # A single workload must finish within DEADLINE_S of the start;
        # `all` gives each workload that much.
        deadline = start + DEADLINE_S if args.workload != "all" else time.time() + DEADLINE_S
        untraced = run_workload(binary, workload, args.seed, args.seconds, 0, deadline)
        if untraced is None:
            die(f"{workload} failed to run", 1)
        traced = None
        if args.trace:
            traced = run_workload(binary, workload, args.seed, args.seconds, 1, deadline)
            if traced is None:
                die(f"{workload} traced run failed", 1)
        result = publish((untraced, traced), args.trace, e2e, layer)
        describe(workload, result, traced if args.trace else untraced)
        results.append((workload, result))

    ok = all(r["correct"] for _, r in results)
    if args.workload == "all":
        for workload, result in results:
            print(workload + " " + json.dumps(result, sort_keys=True))
        summary = {"correct": ok,
                   "attempted": sum(r["attempted"] for _, r in results),
                   "failed": sum(r["failed"] for _, r in results),
                   "metrics": {f"{w}.{k}": v for w, r in results
                               for k, v in r["metrics"].items()}}
        print(json.dumps(summary, sort_keys=True))
    else:
        print(json.dumps(results[0][1], sort_keys=True))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Standing pipeline benchmark: one run of one workload.

    python3 perfbench/run.py --workload ssb_exact --seed 1 --seconds 15 --trace 0

Run from the repository root. Builds perfbench/ (and with it the paleo
library from src/) in Release mode into .bench_build, generates the
workload's inputs from --seed, measures for --seconds, checks every
answer, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). The line before it is the full record:
{"perfbench_record": {...}} with the host and build, the workload's
shape, sample counts and raw samples; perfbench/compare.py reads it.
Exits non-zero without a result line when it cannot build or run, and
with correct=false when an answer check fails.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCHEMA = os.path.join(HERE, "schema.json")
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo")
# Time limit of one run, and of the first one, which also builds.
RUN_LIMIT_S = 175
BUILD_RUN_LIMIT_S = 880


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(msg)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def cmake_cache(bdir):
    cache = {}
    path = os.path.join(bdir, "CMakeCache.txt")
    if not os.path.exists(path):
        return cache
    with open(path) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def build():
    """Configures and builds perfbench in Release; returns (binary, built)."""
    bdir = build_dir()
    binary = os.path.join(bdir, "perfbench")
    cache = cmake_cache(bdir)
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "--build", bdir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    cache = cmake_cache(bdir)
    flags = " ".join(v for k, v in cache.items() if k.startswith("CMAKE_CXX_FLAGS"))
    if cache.get("CMAKE_BUILD_TYPE") not in OPTIMIZED_BUILD_TYPES or "-fsanitize" in flags:
        fail("refusing to measure a %r build with flags %r"
             % (cache.get("CMAKE_BUILD_TYPE"), flags), 2)
    built = before is None or os.path.getmtime(binary) != before
    return binary, built


def inputs(binary, workload, deadline):
    """Generates the workload's fixed instance once per build directory."""
    # tpch_sampled and tpch_sampled_scan run the same relation, lists
    # and samples; only the profile differs.
    key = "tpch_sampled" if workload.startswith("tpch_sampled") else workload
    target = os.path.join(build_dir(), "perfbench-data", key)
    if os.path.exists(os.path.join(target, "complete")):
        return target
    shutil.rmtree(target, ignore_errors=True)
    os.makedirs(target)
    cmd = [binary, "generate", "--workload", workload, "--dir", target]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=max(1, deadline - time.time()))
    if proc.returncode:
        fail("input generation failed")
    open(os.path.join(target, "complete"), "w").close()
    return target


def percentile(values, p):
    """Linear interpolation between closest ranks; p in [0, 100]."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = p / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    if math.isinf(xs[hi]) or math.isinf(xs[lo]):
        return xs[hi] if pos > lo else xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values, p):
    """The fixed tail percentile, and whether >= 10 samples lie beyond it."""
    beyond = len(values) * (1.0 - p / 100.0)
    return percentile(values, p), beyond >= 10.0 - 1e-9


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.time()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(bench_path) or not os.path.exists(SCHEMA):
        fail("BENCHMARK.json or perfbench/schema.json missing")
    with open(bench_path) as f:
        bench = json.load(f)
    with open(SCHEMA) as f:
        schema = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload %r" % args.workload, 2)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("paleo sources (src/) not found next to perfbench/")

    wl = schema["workloads"][args.workload]
    binary, built = build()
    deadline = started + (BUILD_RUN_LIMIT_S if built else RUN_LIMIT_S)
    data = inputs(binary, args.workload, deadline)
    cmd = [binary, "measure", "--workload", args.workload, "--seed", str(args.seed),
           "--dir", data, "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=max(1, deadline - time.time()))
    except subprocess.TimeoutExpired:
        fail("measurement exceeded the run's time limit")
    if proc.returncode:
        fail("measurement failed with exit code %d" % proc.returncode)
    raw = json.loads(proc.stdout.decode().strip().splitlines()[-1])

    lists = raw["lists"]  # [id, ms, ok, found, executions, cap_hit, rprime_rows]
    attempted = len(lists)
    if attempted == 0:
        fail("no list was attempted")
    ok = [row for row in lists if row[2]]
    failed = attempted - len(ok)
    # A list that failed misses every latency limit.
    times = [row[1] if row[2] else math.inf for row in lists]
    list_tail_p = wl["list_ms_tail_percentile"]
    publish_tail_p = schema["publish_ms_tail_percentile"]
    list_tail, list_tail_ok = tail(times, list_tail_p)
    publish_tail, publish_tail_ok = tail(raw["publish_ms"], publish_tail_p)
    if not raw["publish_ms"]:
        publish_tail_ok = None  # nothing is ingested on this workload

    problems = []
    problems += ["gate: " + m for m in raw["gate"]["mismatches"]]
    problems += ["count repeat: " + m for m in raw["repeat"]["mismatches"]]
    problems += ["trace vs Paleo::Run: " + m for m in raw["trace_mismatches"]]
    if raw.get("found_mismatches", 0):
        problems.append("found differs from the static reference on %d lists"
                        % raw["found_mismatches"])
    if raw["publish_failures"]:
        problems.append("%d publishes failed" % raw["publish_failures"])
    for p in problems[:20]:
        log(p)
    correct = not problems

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if args.trace == 0:
        values = {
            "setup_s": statistics.median(raw["setup_s"]),
            "list_ms_p50": percentile(times, 50),
            "list_ms_tail": list_tail,
            "lists_per_s": raw["lists_per_s"],
            "found_share": sum(1 for row in lists if row[3]) / attempted,
            "ok_share": len(ok) / attempted,
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        names = [m["name"] for m in bench["end_to_end"]]
    else:
        values = dict(raw["per_layer"])
        values["catalog.publish_ms_p50"] = percentile(raw["publish_ms"], 50)
        values["catalog.publish_ms_tail"] = publish_tail
        names = [m["name"] for m in bench["per_layer"]]
    missing = [n for n in names if n not in values]
    if missing:
        fail("metrics not produced: %s" % ", ".join(missing))
    window_ms = raw["measured_s"] * 1000.0
    metrics = {}
    for n in names:
        v = values[n]
        if isinstance(v, float) and math.isinf(v):
            v = window_ms  # more than half the lists failed
        metrics[n] = {"value": v, "unit": units[n]}

    cells = {}
    for c in raw["list_cells"]:
        cells[c] = cells.get(c, 0) + 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {
            "nproc": raw["nproc"],
            "cpu_model": cpu_model(),
            "compiler": raw["build"]["compiler"],
            "build_type": raw["build"]["type"],
            "cxx_flags": raw["build"]["flags"].strip(),
        },
        "workload_params": {
            "sf": raw["sf"],
            "sample_fraction": raw["sample_fraction"],
            "use_dimension_index": raw["use_dimension_index"],
            "max_query_executions": raw["max_query_executions"],
        },
        "shape": {
            "relation_rows": raw["table"]["rows"],
            "entities": raw["table"]["entities"],
            "lists_by_cell": cells,
            "mean_rprime_rows": (statistics.mean(row[6] for row in ok) if ok else 0.0),
            "cap_hit_share": sum(1 for row in lists if row[5]) / attempted,
        },
        "samples": {
            "lists": attempted,
            "passes": raw["passes"],
            "measured_s": raw["measured_s"],
            "setups": len(raw["setup_s"]),
            "publishes": len(raw["publish_ms"]),
            "list_ms_tail_percentile": list_tail_p,
            "list_ms_tail_supported": list_tail_ok,
            "publish_ms_tail_percentile": publish_tail_p,
            "publish_ms_tail_supported": publish_tail_ok,
            "gate_checked": raw["gate"]["checked"],
            "repeats_compared": raw["repeat"]["compared"],
        },
        "raw": {
            "setup_s": raw["setup_s"],
            "publish_ms": raw["publish_ms"],
            "publish_late_ms": raw.get("publish_late_ms", []),
        },
        "problems": problems,
        "metrics": metrics,
    }
    print(json.dumps({"perfbench_record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

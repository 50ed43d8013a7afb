#!/usr/bin/env python3
"""Compares benchmark results of a parent commit and a change.

    python3 perfbench/compare.py --parent parent.txt --change change.txt

Each file holds the standard output of perfbench/run.py runs (any number
of runs, concatenated); the {"perfbench_record": ...} lines are used,
untraced runs only. Runs of the two sides are paired by seed (by order
when no seed is shared). For each (workload, end-to-end metric) pair
the report gives both medians and quartiles, the change/parent ratio
with its base, the pairs the change won, and a verdict under the
metric's direction and bound from BENCHMARK.json:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              own quartile spread
  regressed   the change's median is worse than the parent's by more
              than the bound
  unresolved  the parent's own spread is wider than the bound, and not
              every change run beats every parent run
  no worse    otherwise

It also flags differing host/build records and, per seed, differing
workload shapes: a changed generator or protocol is a shape change, not
a speed-up.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(paths):
    records = []
    for path in paths:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    obj = json.loads(line)
                except ValueError:
                    continue
                rec = obj.get("perfbench_record")
                if rec is not None and rec.get("trace") == 0:
                    records.append(rec)
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def pairs(parent, change):
    by_seed_p = {r["seed"]: r for r in parent}
    by_seed_c = {r["seed"]: r for r in change}
    common = sorted(set(by_seed_p) & set(by_seed_c))
    if common:
        return [(by_seed_p[s], by_seed_c[s]) for s in common]
    return list(zip(parent, change))


def verdict(p_vals, c_vals, paired, higher_better, bound):
    sign = 1.0 if higher_better else -1.0
    p_med, c_med = statistics.median(p_vals), statistics.median(c_vals)
    p_q1, p_q3 = quartiles(p_vals)
    wins = sum(1 for a, b in paired if (b - a) * sign > 0)
    ties = sum(1 for a, b in paired if b == a)
    spread = p_q3 - p_q1
    if paired and wins >= 0.9 * len(paired) and (c_med - p_med) * sign > spread:
        return "improved", wins, ties
    if p_med == 0:
        return ("no worse" if (c_med - p_med) * sign >= 0 else "regressed"), wins, ties
    worse_share = (p_med - c_med) * sign / abs(p_med)
    all_better = min(c_vals) > max(p_vals) if higher_better else max(c_vals) < min(p_vals)
    if spread / abs(p_med) > bound and not all_better:
        return "unresolved", wins, ties
    if worse_share > bound:
        return "regressed", wins, ties
    return "no worse", wins, ties


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        sys.exit("no untraced perfbench records on one side")

    hosts = {json.dumps(r["host"], sort_keys=True) for r in parent + change}
    if len(hosts) > 1:
        print("WARNING: runs come from different hosts or builds:")
        for h in sorted(hosts):
            print("  " + h)

    regressed = False
    for wl in [w["name"] for w in bench["workloads"]]:
        p_runs = [r for r in parent if r["workload"] == wl]
        c_runs = [r for r in change if r["workload"] == wl]
        if not p_runs or not c_runs:
            print("\n%s: missing on %s side" % (wl, "parent" if not p_runs else "change"))
            continue
        paired = pairs(p_runs, c_runs)
        print("\n%s: %d parent runs, %d change runs, %d pairs"
              % (wl, len(p_runs), len(c_runs), len(paired)))
        for p, c in paired:
            if p["seed"] == c["seed"] and p["shape"] != c["shape"]:
                print("  SHAPE CHANGED for seed %d: %s -> %s"
                      % (p["seed"], json.dumps(p["shape"]), json.dumps(c["shape"])))
        for m in bench["end_to_end"]:
            name, unit = m["name"], m["unit"]
            p_vals = [r["metrics"][name]["value"] for r in p_runs]
            c_vals = [r["metrics"][name]["value"] for r in c_runs]
            pv = [(a["metrics"][name]["value"], b["metrics"][name]["value"]) for a, b in paired]
            v, wins, ties = verdict(p_vals, c_vals, pv, m["better"] == "higher", m["bound"])
            regressed |= v == "regressed"
            p_med, c_med = statistics.median(p_vals), statistics.median(c_vals)
            p_q = quartiles(p_vals)
            c_q = quartiles(c_vals)
            ratio = ("%.3f (base: parent median %.6g %s)" % (c_med / p_med, p_med, unit)
                     if p_med else "n/a (parent median 0)")
            print("  %-14s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g] %s"
                  % (name, p_med, p_q[0], p_q[1], c_med, c_q[0], c_q[1], unit))
            print("  %-14s change/parent %s; change won %d of %d pairs (%d ties);"
                  " bound %.2f %s is better -> %s"
                  % ("", ratio, wins, len(pv), ties, m["bound"], m["better"], v.upper()))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env bash
# Compare the two sides of a committed benchmark record against the
# repository's benchmark declaration.
#
# Usage:
#   scripts/bench_diff.sh [RECORD] [DECLARATION]
#
# RECORD (default BENCH_perfbench.json) holds `perfbench/run.py` result
# lines, each tagged with its side ("parent" or "change"), git rev, workload,
# seed, trace flag and available_parallelism. DECLARATION (default
# BENCHMARK.json) lists the end-to-end metrics, which way is better, and the
# relative bound a change may lose by.
#
# For each workload and end-to-end metric this prints both sides' medians
# and quartiles over the untraced runs, the change in the median, the
# parent's quartile spread relative to its median, and how many seed-matched
# pairs the change won. A metric whose change median is worse than the
# parent's by more than its bound is flagged, and the script then exits 1.
# The traced runs' per-layer metrics follow, side by side, as each side's
# median and range. Python standard library only.

set -euo pipefail
cd "$(dirname "$0")/.."

record="${1:-BENCH_perfbench.json}"
declaration="${2:-BENCHMARK.json}"

python3 - "$record" "$declaration" <<'EOF'
import json
import statistics
import sys

record = json.load(open(sys.argv[1]))
decl = json.load(open(sys.argv[2]))
runs = record["runs"]
flagged = []


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def fmt(x):
    return f"{x:.0f}" if abs(x) >= 1000 else f"{x:.4g}"


def cell(q):
    return f"{fmt(q[1])} [{fmt(q[0])}, {fmt(q[2])}]"


for workload in [w["name"] for w in decl["workloads"]]:
    plain = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
    if not plain:
        continue
    side = {s: [r for r in plain if r["side"] == s] for s in ("parent", "change")}
    revs = {s: sorted({r["rev"] for r in side[s]}) for s in side}
    seeds = sorted({r["seed"] for r in side["parent"]} & {r["seed"] for r in side["change"]})
    par = sorted({r["available_parallelism"] for r in plain})
    print(f"== {workload}: {len(side['parent'])} parent runs ({', '.join(revs['parent'])}), "
          f"{len(side['change'])} change runs ({', '.join(revs['change'])}), "
          f"{len(seeds)} seed-matched pairs, available_parallelism {par}")
    failed = sum(r["result"]["failed"] for r in plain)
    correct = all(r["result"]["correct"] for r in plain)
    print(f"   every run correct: {correct}; failed requests: {failed}")
    if not correct or failed:
        flagged.append(f"{workload}: a run was incorrect or failed requests")
    print(f"   {'metric':<16} {'parent median [q1, q3]':<30} {'change median [q1, q3]':<30} "
          f"{'change':>8} {'spread':>7} {'wins':>7} bound")
    for m in decl["end_to_end"]:
        name, better, bound = m["name"], m["better"], m["bound"]
        vals = {s: [r["result"]["metrics"][name]["value"] for r in side[s]] for s in side}
        if not vals["parent"] or not vals["change"]:
            continue
        qp, qc = quartiles(vals["parent"]), quartiles(vals["change"])
        mp, mc = qp[1], qc[1]
        rel = (mc - mp) / mp if mp else 0.0
        worse = -rel if better == "higher" else rel
        spread = (qp[2] - qp[0]) / mp if mp else 0.0
        wins = 0
        for s in seeds:
            p = next(r for r in side["parent"] if r["seed"] == s)["result"]["metrics"][name]["value"]
            c = next(r for r in side["change"] if r["seed"] == s)["result"]["metrics"][name]["value"]
            wins += (c > p) if better == "higher" else (c < p)
        verdict = "ok"
        if worse > bound:
            verdict = f"WORSE by {worse:.1%} (bound {bound:.0%})"
            flagged.append(f"{workload} {name}: {verdict}")
        print(f"   {name:<16} {cell(qp):<30} {cell(qc):<30} {rel:>+8.1%} {spread:>7.1%} "
              f"{wins:>3}/{len(seeds):<3} {verdict}")
    traced = {s: [r for r in runs if r["workload"] == workload and r["trace"] == 1 and r["side"] == s]
              for s in ("parent", "change")}
    if traced["parent"] and traced["change"]:
        seeds = sorted({r["seed"] for s in traced for r in traced[s]})
        print(f"   per-layer, median [min, max] of the traced runs "
              f"({len(traced['parent'])} parent, {len(traced['change'])} change; seeds {seeds}):")
        for name in [m["name"] for m in decl["per_layer"]]:
            vals = {s: [r["result"]["metrics"][name]["value"] for r in traced[s]
                        if name in r["result"]["metrics"]] for s in traced}
            if vals["parent"] and vals["change"]:
                unit = traced["parent"][0]["result"]["metrics"][name]["unit"]
                a, b = (f"{fmt(statistics.median(v))} [{fmt(min(v))}, {fmt(max(v))}]"
                        for v in (vals["parent"], vals["change"]))
                print(f"     {name:<34} {a:>28} -> {b:<28} {unit}")
    print()

if flagged:
    print("FLAGGED:")
    for f in flagged:
        print(f"  {f}")
    sys.exit(1)
print("no end-to-end metric is worse than its bound")
EOF

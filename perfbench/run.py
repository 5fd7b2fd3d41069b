#!/usr/bin/env python3
"""Closed-loop front-end benchmark of the ACC engine.

Builds the `perfbench` round binary from source, runs fresh-process rounds
of one workload until `--seconds` of measured time have accumulated over at
least four rounds and the three rounds with the least guest steal were
quiet (or 70 s of wall time have passed), and prints each metric's median
over those three rounds. The last line of standard output is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
untraced and traced rounds alternate and the metrics are the per-layer ones
of the traced rounds, plus the tracing overhead. See README.md.

Usage:
    python3 perfbench/run.py --workload tpcc --seed 1 --seconds 10 --trace 0
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tpcc", "smallbank", "smallbank-reads")
MIN_ROUNDS = 4
# Metrics are medians over this many rounds, the ones with the least steal.
KEPT_ROUNDS = 3
# A round whose measured phase lost less than this share of CPU time to the
# hypervisor counts as quiet.
QUIET_STEAL = 0.03
# No round starts after this much wall time, so that a run on a busy or slow
# host still ends within three minutes.
WALL_BUDGET_S = 70
# A round that takes longer than this is stuck; it is killed and the run fails.
ROUND_TIMEOUT_S = 75

E2E_UNITS = {
    "tps": "tps",
    "p50_ms": "ms",
    "write_p50_ms": "ms",
    "cpu_us_per_txn": "us",
    "ok_frac": "fraction",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "recovery_s": "s",
}


def layer_unit(name):
    if name.endswith("_us"):
        return "us"
    if name.endswith("_frac"):
        return "fraction"
    if name == "wal.bytes_per_txn":
        return "B/txn"
    if name == "wal.records_per_sync":
        return "count/sync"
    if name.endswith("_per_txn"):
        return "count/txn"
    return "count"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return target, os.path.join(target, "release", "perfbench")


def run_round(binary, workload, seed, mode, spans):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} {mode} round (seed {seed}) exceeded {ROUND_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{workload} {mode} round (seed {seed}) exited {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} {mode} round (seed {seed}) printed no result")


def quietest(rounds):
    """The KEPT_ROUNDS rounds with the least guest steal.

    Steal comes and goes within minutes and moves every wall-clock metric
    with it. Ranking rounds by the steal measured over their own measured
    phase, a reading independent of the metrics, keeps the host's worst
    moments out of the medians. Ties keep round order.
    """
    return sorted(rounds, key=lambda r: r["context"]["steal_frac"])[:KEPT_ROUNDS]


def enough(rounds, measured, seconds):
    """Stop once `seconds` are measured over MIN_ROUNDS rounds and the kept
    rounds were all quiet; while the host steals, keep going (within
    WALL_BUDGET_S) for quiet rounds to keep."""
    if measured < seconds or len(rounds) < MIN_ROUNDS:
        return False
    return all(r["context"]["steal_frac"] < QUIET_STEAL for r in quietest(rounds))


def median_of(rounds, section, name):
    return statistics.median(r[section][name] for r in rounds)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    target, binary = build()
    spans = None
    if args.trace:
        os.makedirs(os.path.join(target, "spans"), exist_ok=True)
        spans = os.path.join(target, "spans", f"{args.workload}-{args.seed}.tsv")

    rounds, measured, start = [], 0.0, time.monotonic()
    while not enough(rounds, measured, args.seconds) and (
        time.monotonic() - start < WALL_BUDGET_S
    ):
        i = len(rounds)
        # Round seeds differ, so one run averages over several schedules;
        # the same --seed always yields the same rounds.
        seed = (args.seed * 1_000_003 + i) % 2**63
        mode = "traced" if args.trace and i % 2 == 1 else "plain"
        r = run_round(binary, args.workload, seed, mode, spans if mode == "traced" else None)
        rounds.append(r)
        measured += r["context"]["measured_s"]
        if not r["correct"]:
            break

    plain = quietest([r for r in rounds if r["mode"] == "plain"])
    traced = quietest([r for r in rounds if r["mode"] == "traced"])
    correct = all(r["correct"] for r in rounds)
    w = args.workload
    print(f"[{w}] {len(rounds)} rounds, {measured:.1f} s measured; "
          f"parallelism {rounds[0]['context']['parallelism']:.0f}; steal per round "
          + " ".join(f"{r['context']['steal_frac']:.3f}" for r in rounds)
          + f"; medians over the {len(plain)} quietest untraced rounds")
    for name in E2E_UNITS:
        vals = [r["e2e"][name] for r in plain]
        print(f"[{w}] {name} = {statistics.median(vals):.6g} {E2E_UNITS[name]} "
              f"(median of {len(vals)}; min {min(vals):.6g}, max {max(vals):.6g})")
    print(f"[{w}] p99_ms = {median_of(plain, 'context', 'p99_ms'):.4f} ms (reading only; "
          f"median of {len(plain)} rounds, each over "
          f"{median_of(plain, 'context', 'latency_samples'):.0f} committed requests)")

    if args.trace:
        metrics = {}
        if traced:
            for name in sorted(traced[0]["layers"]):
                metrics[name] = median_of(traced, "layers", name)
            cpu = median_of(traced, "e2e", "cpu_us_per_txn") / median_of(plain, "e2e", "cpu_us_per_txn")
            tps = median_of(traced, "e2e", "tps") / median_of(plain, "e2e", "tps")
            metrics["trace.overhead_frac"] = cpu - 1.0
            print(f"[{w}] tracing overhead: cpu_us_per_txn x{cpu:.3f}, tps x{tps:.3f} "
                  f"({len(traced)} traced vs {len(plain)} untraced rounds)")
            for name, value in metrics.items():
                print(f"[{w}] {name} = {value:.6g} {layer_unit(name)}")
        out = {n: {"value": v, "unit": layer_unit(n)} for n, v in metrics.items()}
    else:
        out = {n: {"value": median_of(plain, "e2e", n), "unit": u} for n, u in E2E_UNITS.items()}

    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": out,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

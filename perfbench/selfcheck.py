#!/usr/bin/env python3
"""Self-check of the ads end-to-end benchmark.

Runs every workload briefly twice on one seed (traced, so each run also
holds an untraced pass and ads_perfbench's own traced-vs-untraced gate) and
asserts that every virtual metric and deterministic counter repeats exactly,
that the correctness gate held, and that viewer_fail_ratio is 0.

Usage (from the repository root): python3 perfbench/selfcheck.py
"""
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SEED = 11
# Short runs that still cover each workload's mechanism (join_churn needs
# several join waves and leaves).
TICKS = {"photo": 12, "text_relay": 20, "join_churn": 60}
# Metrics measured on the virtual clock or counted: they must repeat exactly.
VIRTUAL_E2E = {"update_latency_ms_p50", "update_latency_ms_p99",
               "join_first_frame_ms_p50", "join_first_frame_ms_p90",
               "kbytes_per_viewer_s", "viewer_fail_ratio"}
COUNT_UNITS = {"count", "bytes", "px/tick", "count/tick", "ratio"}
WALL_CLOCK_RATIOS = {"trace.overhead_ratio"}


def run(workload):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", "1", "--ticks", str(TICKS[workload])]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise AssertionError(f"{workload}: correctness gate failed: {lines[-1]}")
    deterministic = {}
    for line in lines[:-1]:
        kind, name, value, unit = line.split()
        if (kind == "e2e" and name in VIRTUAL_E2E) or (
                kind == "layer" and name not in WALL_CLOCK_RATIOS and
                (unit in COUNT_UNITS or name == "net.udp.queue_delay_us_p50")):
            deterministic[name] = value
    if deterministic.get("viewer_fail_ratio") != "0":
        raise AssertionError(f"{workload}: viewer_fail_ratio is not 0")
    return deterministic


def main():
    failures = 0
    for workload in TICKS:
        first, second = run(workload), run(workload)
        diff = {k: (v, second.get(k)) for k, v in first.items() if second.get(k) != v}
        if diff or first.keys() != second.keys():
            print(f"FAIL {workload}: not repeated exactly: {diff}")
            failures += 1
        else:
            print(f"ok   {workload}: {len(first)} virtual metrics and counters repeat")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Compare perfbench stdout captures of two builds (an A/B of a change).

Usage (from the repository root):

    python3 scripts/bench_compare.py PARENT_DIR CHANGE_DIR

Each directory holds the stdout of `perfbench/run.py` runs, one file per
run, named `<group>.<run>.txt` (for example `text_relay-s1-t0.03.txt`): a
group is one workload, seed and trace mode, and the same file name in both
directories is one alternating pair of runs.

Deterministic lines must be equal in every file of a group, in both
directories: every virtual end-to-end metric, every `info` line, every
per-layer counter, and the JSON verdict's `correct` and failed share of
attempted viewers. Any difference is printed and makes the exit code 1.

Wall-clock lines are summarised per group instead: each side's median and
quartiles, the change's median delta in percent, how many pairs the change
won, and whether the gap between the medians exceeds the parent's
interquartile range. perfbench/README.md names the wall-clock lines:
`setup_s`, `ah_tick_ms_*`, `viewer_ms_per_s`, `wall_s_per_sim_s`, the
per-layer times and rates, and `trace.overhead_ratio`. `info passes` is
also wall-clock: `--trace 0` repeats passes until their timed runs add up
to `--seconds` (so the JSON's `attempted` scales with it). Whether lower or higher is better comes from
BENCHMARK.json (lower when it does not list the metric).

Exit code: 0 when every deterministic line matches, 1 when one differs,
2 on a usage error (missing directory, unreadable capture, no pairs).
"""
import argparse
import json
import re
import statistics
import sys
from pathlib import Path

WALL_NAMES = {"setup_s", "viewer_ms_per_s", "wall_s_per_sim_s",
              "trace.overhead_ratio", "passes"}
WALL_PREFIXES = ("ah_tick_ms_",)
# Per-layer lines in these units are times or rates measured on the wall
# clock; per-layer counts, ratios and virtual-clock delays are exact.
WALL_LAYER_UNITS = {"ms", "ms/tick", "us/tick", "us/call", "MB/s"}
LINE_RE = re.compile(r"^(\w+)\s+(\S+)\s+(\S+)\s+(\S+)\s*$")


def is_wall(kind, name, unit):
    if name in WALL_NAMES or name.startswith(WALL_PREFIXES):
        return True
    return kind == "layer" and unit in WALL_LAYER_UNITS


def parse(path):
    """Returns ({name: value} wall lines, {key: text} deterministic lines)."""
    wall = {}
    exact = {}
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if line.startswith("{"):
            # `attempted` counts viewers over every pass, so it scales with
            # the wall-clock pass count; the verdict and the failed share
            # must match.
            verdict = json.loads(line)
            attempted = verdict.get("attempted") or 0
            exact["json correct"] = str(verdict.get("correct"))
            exact["json failed/attempted"] = str(verdict.get("failed", 0) / attempted
                                                 if attempted else 0)
            continue
        m = LINE_RE.match(line)
        if not m:
            continue
        kind, name, value, unit = m.groups()
        if is_wall(kind, name, unit):
            wall[name] = float(value)
        else:
            exact[f"{kind} {name}"] = f"{value} {unit}"
    if not exact:
        raise ValueError(f"{path}: no perfbench lines")
    return wall, exact


def group_of(path):
    """`text_relay-s1-t0.03.txt` -> `text_relay-s1-t0`."""
    stem = path.name.split(".txt")[0]
    head, _, run = stem.rpartition(".")
    return head if head and run.isdigit() else stem


def directions():
    """Metric name -> True when higher is better, from BENCHMARK.json."""
    spec = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    out = {}
    if spec.is_file():
        data = json.loads(spec.read_text())
        for entry in data.get("end_to_end", []) + data.get("per_layer", []):
            out[entry["name"]] = entry.get("better") == "higher"
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def cell(median, q):
    return f"{median:.4g} [{q[0]:.4g}, {q[1]:.4g}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    for d in (args.parent, args.change):
        if not d.is_dir():
            print(f"bench_compare: {d} is not a directory", file=sys.stderr)
            return 2

    runs = {}  # group -> side -> file name -> (wall, exact)
    for side, d in (("parent", args.parent), ("change", args.change)):
        for path in sorted(d.glob("*.txt")):
            try:
                parsed = parse(path)
            except (ValueError, json.JSONDecodeError) as err:
                print(f"bench_compare: {err}", file=sys.stderr)
                return 2
            runs.setdefault(group_of(path), {"parent": {}, "change": {}})[side][path.name] = parsed
    if not any(sides["parent"] and sides["change"] for sides in runs.values()):
        print("bench_compare: no group has captures on both sides", file=sys.stderr)
        return 2

    higher_better = directions()
    differences = 0
    for group in sorted(runs):
        sides = runs[group]
        files = [(f"{side}/{name}", parsed) for side in ("parent", "change")
                 for name, parsed in sorted(sides[side].items())]
        first_name, (_, first_exact) = files[0]
        for name, (_, exact) in files[1:]:
            for key in sorted(set(first_exact) | set(exact)):
                a, b = first_exact.get(key), exact.get(key)
                if a != b:
                    differences += 1
                    print(f"DIFF {group} {key}: {first_name} {a} vs {name} {b}")

        pairs = sorted(set(sides["parent"]) & set(sides["change"]))
        print(f"\n{group}: {len(sides['parent'])} parent, {len(sides['change'])} change "
              f"runs, {len(pairs)} pairs")
        if not pairs:
            continue
        print(f"  {'metric':<24} {'parent median [q1, q3]':>32} "
              f"{'change median [q1, q3]':>32} {'delta':>9} {'won':>7} gap>IQR")
        walls = [(sides["parent"][p][0], sides["change"][p][0]) for p in pairs]
        for metric in sorted(set().union(*(x for x, _ in walls))):
            a = [x[metric] for x, y in walls if metric in x and metric in y]
            b = [y[metric] for x, y in walls if metric in x and metric in y]
            if not a:
                continue
            up = higher_better.get(metric, False)
            won = sum(1 for x, y in zip(a, b) if (y > x if up else y < x))
            ma, mb = statistics.median(a), statistics.median(b)
            qa, qb = quartiles(a), quartiles(b)
            delta = (mb - ma) / ma * 100 if ma else float("nan")
            gap = abs(mb - ma) > qa[1] - qa[0]
            print(f"  {metric:<24} {cell(ma, qa):>32} {cell(mb, qb):>32} "
                  f"{delta:>+8.1f}% {won:>3}/{len(a):<3} {'yes' if gap else 'no'}")

    if differences:
        print(f"\nFAIL: {differences} deterministic line(s) differ")
        return 1
    print("\nOK: every virtual metric, counter and info line matches")
    return 0


if __name__ == "__main__":
    sys.exit(main())

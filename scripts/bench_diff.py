#!/usr/bin/env python3
"""Compare the commits recorded in a benchmark trajectory, pair by pair.

    python3 scripts/bench_diff.py BENCH_trace-replay.json

Reads a trajectory file written by scripts/bench_record.py (one JSON line
per run) and groups its records by `describe`, oldest commit first: by
history (`git rev-list --count` of each record's commit) when this checkout
knows every commit, else in the order each first appears.  For every
end-to-end metric BENCHMARK.json declares, it prints each commit's median
and quartiles over its runs.  The newest commit
is then judged against the one before it: the relative change of the
medians, signed so that a positive change is an improvement, and how many
pairs the newer commit wins.  The i-th run of one commit pairs with the i-th
run of the other, so recording the two commits alternately (parent, change,
parent, ...) pairs runs made close together in time.  A metric whose median
got worse by more than its bound is marked WORSE, and the script then exits
1; otherwise 0.  A change smaller than the older commit's quartile spread is
not a finding (see EXPERIMENTS.md for the spread).
"""

import argparse
import json
import os
import subprocess
import sys


def load_records(path):
    records = []
    with open(path, encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except ValueError as error:
                sys.exit(f"bench_diff: {path}:{number}: {error}")
    return records


def history_depth(root, commit):
    """How many commits `commit` descends from, or None when unknown."""
    try:
        done = subprocess.run(["git", "-C", root, "rev-list", "--count", commit],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return int(done.stdout) if done.returncode == 0 and done.stdout.strip() else None


def group_by_commit(records, root):
    """[(describe, [record, ...]), ...], oldest commit first."""
    groups = {}
    for record in records:
        groups.setdefault(record.get("describe", "unknown"), []).append(record)
    depths = [history_depth(root, runs[0]["record"].get("commit") or describe)
              for describe, runs in groups.items()]
    ordered = list(groups.items())
    if None not in depths:
        ordered = [group for _, _, group in
                   sorted(zip(depths, range(len(ordered)), ordered))]
    return ordered


def quantile(sorted_values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    position = (len(sorted_values) - 1) * q
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (position - low)


def values_of(runs, name):
    return [run["result"]["metrics"].get(name, {}).get("value") for run in runs]


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trajectory", help="a BENCH_<workload>.json file")
    parser.add_argument("--benchmark",
                        default=os.path.join(root, "BENCHMARK.json"),
                        help="the bounds (default: the repo's BENCHMARK.json)")
    args = parser.parse_args()

    groups = group_by_commit(load_records(args.trajectory), root)
    if not groups:
        sys.exit(f"bench_diff: {args.trajectory} holds no record")
    with open(args.benchmark, encoding="utf-8") as f:
        bounds = json.load(f)["end_to_end"]

    for describe, runs in groups:
        seeds = sorted({run["record"].get("seed") for run in runs}, key=str)
        print(f"{describe}: {len(runs)} run(s), seeds "
              f"{', '.join(str(seed) for seed in seeds)}")
    older, newer = (groups[-2][1], groups[-1][1]) if len(groups) > 1 else (None, None)
    if older is not None:
        print(f"judged: {groups[-1][0]} against {groups[-2][0]}, "
              f"{min(len(older), len(newer))} pair(s)")

    worse = False
    for metric in bounds:
        name = metric["name"]
        print(f"\n{name} ({metric['better']} is better, bound {metric['bound']:.0%})")
        print(f"  {'commit':<24} {'median':>14} {'q1':>14} {'q3':>14}")
        medians = {}
        for describe, runs in groups:
            values = sorted(v for v in values_of(runs, name) if v is not None)
            if not values:
                print(f"  {describe:<24} {'-':>14} {'-':>14} {'-':>14}  missing")
                continue
            medians[describe] = quantile(values, 0.5)
            print(f"  {describe:<24} {medians[describe]:>14.6g} "
                  f"{quantile(values, 0.25):>14.6g} {quantile(values, 0.75):>14.6g}")
        if older is None:
            continue
        old = medians.get(groups[-2][0])
        new = medians.get(groups[-1][0])
        if old is None or new is None:
            print("  change: missing")
            continue
        if old == 0:
            change = 0.0 if new == 0 else float("inf")
        else:
            change = (new - old) / abs(old)
        lower = metric["better"] == "lower"
        if lower:
            change = -change
        wins = ties = pairs = 0
        for before, after in zip(values_of(older, name), values_of(newer, name)):
            if before is None or after is None:
                continue
            pairs += 1
            if after == before:
                ties += 1
            elif (after < before) == lower:
                wins += 1
        flag = ""
        if change < -metric["bound"]:
            flag = "  WORSE"
            worse = True
        print(f"  change of medians {change:+.1%}; newer wins {wins} of {pairs} "
              f"pair(s){f', {ties} tied' if ties else ''}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

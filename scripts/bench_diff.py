#!/usr/bin/env python3
"""Compare the newest benchmark record with the one before it.

    python3 scripts/bench_diff.py BENCH_sim-20k.json

Reads a trajectory file written by scripts/bench_record.py (one JSON line
per run) and, for every end-to-end metric BENCHMARK.json declares, prints
the previous and newest values and the relative change, signed so that a
positive change is an improvement.  A metric that got worse by more than
its bound is marked WORSE, and the script then exits 1; otherwise 0.  One
pair of runs is a single sample: a change within the run-to-run spread of
the machine is not a finding (see EXPERIMENTS.md for the spread).
"""

import argparse
import json
import os
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


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trajectory", help="a BENCH_<workload>.json file")
    parser.add_argument("--benchmark",
                        default=os.path.join(root, "BENCHMARK.json"),
                        help="the bounds (default: the repo's BENCHMARK.json)")
    args = parser.parse_args()

    records = load_records(args.trajectory)
    if len(records) < 2:
        sys.exit(f"bench_diff: {args.trajectory} holds {len(records)} "
                 "record(s); two are needed")
    with open(args.benchmark, encoding="utf-8") as f:
        bounds = json.load(f)["end_to_end"]
    before, after = records[-2], records[-1]
    print(f"before: {before.get('describe')} {before.get('date')} "
          f"seed {before['record'].get('seed')}")
    print(f"after:  {after.get('describe')} {after.get('date')} "
          f"seed {after['record'].get('seed')}")
    print(f"{'metric':<18} {'before':>14} {'after':>14} {'change':>9}  bound")
    worse = False
    for metric in bounds:
        name = metric["name"]
        old = before["result"]["metrics"].get(name, {}).get("value")
        new = after["result"]["metrics"].get(name, {}).get("value")
        if old is None or new is None:
            print(f"{name:<18} {'-':>14} {'-':>14} {'-':>9}  missing")
            continue
        if old == 0:
            change = 0.0 if new == 0 else float("inf")
        else:
            change = (new - old) / abs(old)
        if metric["better"] == "lower":
            change = -change
        flag = ""
        if change < -metric["bound"]:
            flag = "  WORSE"
            worse = True
        print(f"{name:<18} {old:>14.6g} {new:>14.6g} {change:>+8.1%}  "
              f"{metric['bound']:.0%}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

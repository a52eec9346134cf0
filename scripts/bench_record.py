#!/usr/bin/env python3
"""Run the repository benchmark once and append its result to the trajectory.

    python3 scripts/bench_record.py --workload sim-20k --seed 2 --seconds 40

Runs `python3 perfbench/run.py` unchanged from the root of the checkout the
script lives in (or --checkout), then appends one JSON line to
BENCH_<workload>.json in --out-dir (default: that checkout's root).  The
line holds the run's last two output lines — perfbench's metadata record and
its result — plus the date and `git describe` of the checkout:

    {"date": "...", "describe": "...", "record": {...}, "result": {...}}

scripts/bench_diff.py compares the newest line of such a file with the one
before it.  Exits with perfbench's status; nothing is appended when the run
fails or prints no result.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys


def describe(checkout):
    try:
        done = subprocess.run(
            ["git", "-C", checkout, "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--checkout", default=root,
                        help="checkout to benchmark (default: this one)")
    parser.add_argument("--out-dir", default=None,
                        help="where BENCH_<workload>.json lives "
                             "(default: the checkout's root)")
    args = parser.parse_args()

    checkout = os.path.abspath(args.checkout)
    out_dir = os.path.abspath(args.out_dir or checkout)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or len(lines) < 2:
        print("bench_record: no result recorded", file=sys.stderr)
        return done.returncode or 1
    try:
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError) as error:
        print(f"bench_record: unexpected output ({error})", file=sys.stderr)
        return 1
    entry = {
        "date": datetime.datetime.now(datetime.timezone.utc)
                .isoformat(timespec="seconds"),
        "describe": describe(checkout),
        "record": record,
        "result": result,
    }
    path = os.path.join(out_dir, f"BENCH_{args.workload}.json")
    with open(path, "a", encoding="utf-8") as out:
        out.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"bench_record: appended to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

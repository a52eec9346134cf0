#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload trace-replay --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, seed 1

The first call configures and builds perfbench/ (the library sources in src/
plus the program in perfbench/src/) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later calls reuse the build.  The last line of standard
output is the run's JSON result; the line before it is the metadata record.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ["relay-small", "relay-churn-persist", "trace-replay", "sim-100k",
             "sim-20k"]
RUN_TIMEOUT_S = 170  # a run must end within 180 s; the build is extra


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_id(root):
    """The commit when the checkout is a git repository, else a digest of
    every source file the benchmark builds from."""
    try:
        head = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build(root, build_root, env):
    """Configure (once) and build the program; returns the binary's path."""
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(build_root, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, stderr=sys.stderr, env=env, check=True)
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr, env=env, check=True)
    return os.path.join(build_dir, "perfbench")


def run_one(binary, build_root, env, workload, seed, seconds, trace, commit):
    """Run one workload; relays its output and returns its exit code."""
    work_dir = os.path.join(build_root, "work", f"{workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", work_dir,
               "--spans-dir", os.path.join(build_root, "spans"),
               "--commit", commit]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=env, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("run from the root of a checkout: src/ (the library) is missing")
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.startswith(root + os.sep):
        build_root = os.path.join(root, ".bench_build")
    os.makedirs(os.path.join(build_root, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(build_root, "tmp"))

    try:
        binary = build(root, build_root, env)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}", 1)
    commit = source_id(root)

    if args.workload != "all":
        sys.exit(run_one(binary, build_root, env, args.workload, args.seed,
                         args.seconds, args.trace, commit))
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload} (seed {args.seed}, {args.seconds} s, "
              f"trace {args.trace})", flush=True)
        start = time.monotonic()
        status |= run_one(binary, build_root, env, workload, args.seed,
                          args.seconds, args.trace, commit)
        print(f"== {workload} took {time.monotonic() - start:.1f} s", flush=True)
    sys.exit(1 if status else 0)


if __name__ == "__main__":
    main()

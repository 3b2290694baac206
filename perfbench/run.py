#!/usr/bin/env python3
"""The repository benchmark: one workload per call.

    python3 perfbench/run.py --workload selfjoin|serve|stream \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The script builds the `perfbench` load
generator and the `catalogd` server binary from source (release
profile, into $CARGO_TARGET_DIR, default `.bench_build`), then runs the
workload with the parameters recorded in `perfbench/config.json`.
Build output goes to stderr; the load generator's report goes to
stdout, and its last line is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` replays the
workload through the layers' public functions and reports the
per-layer metrics (and writes a chrome-trace JSON file next to the
build). The exit status is 0 only if the build succeeded and every
output check passed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The load generator must finish well inside the caller's limit.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    workload = config["workloads"].get(args.workload)
    if workload is None:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(config['workloads'])}")
    seed = args.seed if args.seed is not None else config["seeds"]["default"]
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "-p", "perfbench", "-p", "tsj-catalogd",
    ]
    if subprocess.run(build, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")

    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(args.trace),
        "--catalogd", os.path.join(release, "catalogd"),
        "--out", os.path.join(target, "perfbench-out"),
    ]
    for key, value in workload["params"].items():
        command += ["--set", f"{key}={value}"]
    sys.stdout.flush()
    # Own process group, so a hung run takes its catalogd nodes with it.
    child = subprocess.Popen(command, env=env, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()

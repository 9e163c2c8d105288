#!/usr/bin/env python3
"""Build and run the Aurora benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `aurora-perfbench` package (release, offline) into
$CARGO_TARGET_DIR, or perfbench/target when that is unset, runs one
workload, checks that the result names exactly the metrics BENCHMARK.json
lists for this kind of run, and prints the result JSON as the last line of
standard output. Traced runs also write their spans as CSV under
<target>/perfbench-trace/. Exits non-zero, printing no result, when the
build, the run or the check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}")
    expected = bench["per_layer" if args.trace == "1" else "end_to_end"]

    target = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or "perfbench/target")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        # Build output goes to stderr: stdout carries only the result.
        subprocess.run(build, env=env, cwd=ROOT, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S, check=True)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build failed: {e}")

    cmd = [
        os.path.join(target, "release", "aurora-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(target, "perfbench-trace")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, check=True)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"run failed: {e}")

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        fail(f"last output line is not JSON: {e}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

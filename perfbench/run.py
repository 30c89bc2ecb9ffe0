#!/usr/bin/env python3
"""Build the hetgc benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is the Cargo package in
perfbench/ (a workspace of its own that depends on the repository's
crates by path); it is built in release mode into $CARGO_TARGET_DIR
(default perfbench/target) and run from the root. Its output passes
through; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. Before passing that line on,
run.py checks it against BENCHMARK.json: every end-to-end metric (with
--trace 0) or every per-layer metric (with --trace 1), each with its
unit. The exit code is non-zero when the sources are missing, the build
fails, the benchmark fails or its result does not hold.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Builds the benchmark binary and returns its path."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    return os.path.join(ROOT, target, "release", "hetgc-perfbench")


def run(binary, args):
    """Runs the benchmark in its own process group (its socket workers
    join it), passing stdout through; returns (exit code, last line)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(HERE, "out")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"the benchmark ran past {RUN_TIMEOUT_S} s and was stopped")
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    return proc.returncode, (lines[-1] if lines else "")


def check(result_line, trace):
    """Checks the result line against BENCHMARK.json; returns it parsed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        result = json.loads(result_line)
    except ValueError as e:
        fail(f"the last line is not JSON ({e}): {result_line!r}")
    if list(result) != ["correct", "attempted", "failed", "metrics"]:
        fail(f"unexpected keys {list(result)}")
    if not isinstance(result["correct"], bool):
        fail("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"{key} is not a whole number")
    if result["attempted"] < 1:
        fail("nothing was attempted")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(wanted) - set(got))}, "
             f"extra {sorted(set(got) - set(wanted))}")
    for name, m in got.items():
        if m.get("unit") != wanted[name]:
            fail(f"{name}: unit {m.get('unit')!r}, BENCHMARK.json says {wanted[name]!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            fail(f"{name}: value {value!r} is not a number")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail(f"the repository sources are not next to {HERE}: nothing to build", 2)
    code, last = run(build(), args)
    if code != 0:
        fail(f"the benchmark exited with code {code}")
    result = check(last, args.trace == 1)
    print(last)
    if not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()

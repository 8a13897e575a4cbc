#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
Amnesia libraries and the harness into $CARGO_TARGET_DIR (default
.bench_build); later runs only rebuild what changed. Every run first
executes the harness self-tests. The harness prints the result object as
the last line of standard output; this script passes it through and
exits with the harness's code.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("login_cold", "password_round", "account_churn")
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    log_path = os.path.join(build_dir, "perfbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "perfbench", "perfbench_selftest"],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)

    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=subprocess.DEVNULL)
    if selftest.returncode != 0:
        fail("harness self-tests failed")

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", ".bench_work"]
    try:
        harness = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                 timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {HARNESS_TIMEOUT_S} s")
    sys.stdout.write(harness.stdout)
    sys.stdout.flush()
    sys.exit(harness.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Layered harness benchmark runner.

Builds the benchmark (and the repository's library it links) from
source, runs one workload, cross-checks the simulated-output digest
against a run with a one-thread pool, and prints the result JSON as the
last line of standard output.

    python3 layerbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run it from the repository root. The build lives in
.bench_build/layerbench; traced runs write their Chrome trace-event
JSON to .bench_build/layerbench/traces/. Exit code 0 only when every
output check passed; non-zero (with no result line) when the build or
the run itself fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("steady", "overload", "fleet_failover", "design_sweep")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "layerbench"
BINARY = BUILD_DIR / "layerbench"
# Budgets: a cold build may take minutes; the runs after it must end
# well inside the 180 s a run is allowed.
BUILD_DEADLINE_S = 800.0
RUN_DEADLINE_S = 170.0


def fail(message):
    print(f"layerbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_step(cmd, deadline, env=None):
    """Run one child to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, text=True,
                              capture_output=True, check=False,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}")
    except OSError as err:
        fail(f"cannot run {cmd[0]}: {err}")
    return None


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources next to {BENCH_DIR.name}/ "
             "(CMakeLists.txt and src/ are required)")
    deadline = time.monotonic() + BUILD_DEADLINE_S
    if not (BUILD_DIR / "build.ninja").is_file():
        done = run_step(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-G", "Ninja", "-DCMAKE_BUILD_TYPE=Release"],
                        deadline)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    done = run_step(["cmake", "--build", str(BUILD_DIR), "--target",
                     "layerbench", "-j", jobs], deadline)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-20000:] + done.stderr[-20000:])
        fail("build failed")


def digest_of(stdout):
    for line in stdout.splitlines():
        if line.startswith("digest: "):
            return line.split()[1]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = [str(BINARY), "--workload", args.workload, "--seed",
            str(args.seed)]

    cmd = base + ["--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = BUILD_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    done = run_step(cmd, deadline)
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").splitlines()
    if not lines:
        fail(f"the benchmark printed nothing (exit {done.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(done.stdout)
        fail(f"the benchmark's last line is not JSON (exit {done.returncode})")
    for line in lines[:-1]:
        print(line)

    # The simulated outputs must not depend on the pool size: replay the
    # timed work once with a one-thread pool and compare digests.
    serial_env = dict(os.environ, MCBP_THREADS="1")
    serial = run_step(base + ["--digest-only"], deadline, env=serial_env)
    sys.stderr.write(serial.stderr)
    pooled, single = digest_of(done.stdout), digest_of(serial.stdout)
    if serial.returncode != 0 or pooled is None or pooled != single:
        print(f"CHECK FAILED: digest {pooled} with the full pool, "
              f"{single} at MCBP_THREADS=1")
        result["correct"] = False
        result["failed"] = result["attempted"]
        if "completed_share" in result["metrics"]:
            result["metrics"]["completed_share"]["value"] = 0.0
    else:
        print(f"check: digest {pooled} identical at MCBP_THREADS=1")

    print(json.dumps(result))
    sys.exit(0 if result["correct"] and done.returncode == 0 else 1)


if __name__ == "__main__":
    main()

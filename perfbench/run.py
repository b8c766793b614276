#!/usr/bin/env python3
"""Build and run the P-Grid deployment benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lookup|build|cluster \
        --seed N --seconds S --trace 0|1

The script builds the benchmark package (perfbench/Cargo.toml) and the
workspace's pgrid-cluster binary in release mode into $CARGO_TARGET_DIR
(default: .bench_build), records a host and run fingerprint, runs the
benchmark binary, and prints its report.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is non-zero when the build fails, an output check fails, or
the run exceeds its time limit.
"""

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

# A run that has not finished after this long is killed and fails.
RUN_LIMIT_S = 170


def sh(cmd, cwd):
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def reference_loop_ms():
    """Median time of a fixed pure-Python loop, in ms: how fast the host ran
    code that is not the program's around the run (information only)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1000)
    return sorted(times)[1]


def fingerprint(root, args, load_before, load_after, speed_before, speed_after):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "rustc": sh(["rustc", "-V"], root) or "unknown",
        "commit": sh(["git", "rev-parse", "HEAD"], root) or "unknown (not a git checkout)",
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "reference_loop_ms_before": round(speed_before, 3),
        "reference_loop_ms_after": round(speed_after, 3),
        "notes": "cluster traffic crosses the host loopback interface; fsync latency "
        "is the container filesystem's, not a device's",
    }


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    steps = [
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "-p", "pgrid-cluster"],
    ]
    for cmd in steps:
        # Cargo's progress goes to stderr; standard output carries only the report.
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def stop_group(proc):
    """Kills the process group of `proc` and waits until it is empty."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["lookup", "build", "cluster"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    if not build(root, target):
        return 1

    work = target / "perfbench-work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", str(work),
        "--cluster-exe", str(target / "release" / "pgrid-cluster"),
    ]
    speed_before = reference_loop_ms()
    load_before = list(os.getloadavg())
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s and was killed", file=sys.stderr)
        return 1
    stop_group(proc)
    load_after = list(os.getloadavg())
    speed_after = reference_loop_ms()

    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(stdout)
        print(f"perfbench: benchmark exited with {proc.returncode}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print("fingerprint: " + json.dumps(fingerprint(root, args, load_before, load_after, speed_before, speed_after)))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())

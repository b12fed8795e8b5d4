#!/usr/bin/env python3
"""End-to-end benchmark of the snoc simulator: one workload, one seed.

    python3 perfbench/run.py --workload upset_sweep --seed 1 --seconds 10 --trace 0

Builds perfbench_driver from source into build-perfbench/ (a Release build
of src/ plus perfbench/driver/, see perfbench/CMakeLists.txt), then:

  * --trace 0: times the set-up in --setup-only child processes (setup_s is
    the median of SETUP_REPEATS process lifetimes: start-up, input
    generation and one warm-up trial per sweep cell), then runs the
    closed-loop timed phase and reports the end-to-end metrics;
  * --trace 1: runs the same trial list untraced and then traced, and
    reports the per-layer metrics (spans are written to
    build-perfbench/spans-<workload>.jsonl).

Every metric is printed as "name value unit"; the last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}.  The exit code is
non-zero when the build fails, the driver fails, or any trial's output
check fails.  See perfbench/README.md.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / "build-perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"

WORKLOADS = ("upset_sweep", "dense_broadcast", "router_mesh")
SETUP_REPEATS = 5
# The whole run must end within 180 s once built.
RUN_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configure once, then bring the driver up to date (a no-op when it is)."""
    log = BUILD_DIR / "build.log"
    BUILD_DIR.mkdir(exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench_driver", "-j", "2"])
    with open(log, "w", encoding="utf-8") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=840, check=False).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                out.flush()
                tail = log.read_text(encoding="utf-8", errors="replace")[-3000:]
                print(tail, file=sys.stderr)
                fail(f"build step {' '.join(cmd[:2])} exited {rc}; log in {log}")


def run_driver(args, extra, timeout):
    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"driver timed out after {timeout} s: {' '.join(cmd)}")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"driver exited {proc.returncode}: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed nothing")
    return lines


def setup_seconds(args, deadline):
    """Median wall time of SETUP_REPEATS whole set-up processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        run_driver(args, ["--setup-only"], max(1, deadline - time.monotonic()))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    wanted = spec()["per_layer" if args.trace else "end_to_end"]
    build()
    deadline = time.monotonic() + RUN_TIMEOUT_S

    setup_s = None if args.trace else setup_seconds(args, deadline)
    extra = []
    if args.trace:
        extra = ["--trace-out", str(BUILD_DIR / f"spans-{args.workload}.jsonl")]
    lines = run_driver(args, extra, max(1, deadline - time.monotonic()))
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"driver's last line is not JSON: {lines[-1][:200]}")

    metrics = result["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            fail(f"driver did not report {m['name']}")
        value = got["value"]
        if value is None or not math.isfinite(value):
            fail(f"{m['name']} is not a finite number")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} unit {got['unit']} != {m['unit']}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value:.6g} {m['unit']}")

    attempted = int(result["attempted"])
    failed = int(result["failed"])
    correct = bool(result["correct"]) and failed == 0 and attempted >= 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of the RegMutex simulator.

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench,
then runs one workload for --seconds and prints, as the last line of
stdout, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, taken by a separate
traced run (spans go to .bench_build/perfbench/spans/). README.md says
what every workload and metric means.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Exit status: 0 with a correct result, 1 with an incorrect one, 2 when
the benchmark cannot build or run (no result line is printed).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "rm_perfbench"
EXPECTED = HERE / "expected"
WORKLOADS = ("figures", "machine-preempt", "compile-verify")

# Set-up is timed in this many separate processes (each stops after its
# warm-up) besides the measuring one, and the median is reported. One
# more set-up-only process runs first and is not timed: on a shared host
# the first second of load after a pause can run 3-4x slower.
SETUP_ONLY_PROCESSES = 3
# Once built, every run must end within 180 s; leave room for the
# Python start-up and the incremental build check before the deadline.
RUN_BUDGET_S = 165.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message):
    log(f"perfbench: {message}")
    sys.exit(2)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configure once, then build incrementally. Output goes to stderr."""
    if not (ROOT / "src").is_dir():
        fail(f"no simulator sources at {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(nproc())])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def git(*args):
    done = subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def provenance():
    """Where the numbers come from: source tree and host."""
    # The commit and dirty flag describe the tree this file sits in,
    # whatever the working directory; a checkout that is not a git
    # repository still gets a digest of the sources measured.
    commit = dirty = None
    if git("rev-parse", "--show-toplevel") == str(ROOT):
        commit = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--", "src", "perfbench")
        dirty = None if status is None else bool(status)
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "dirty": dirty,
        "source_sha256": digest.hexdigest(),
        "nproc": nproc(),
        "cpu_model": cpu_model,
        "RM_THREADS": os.environ.get("RM_THREADS"),
    }


def spawn(args, deadline):
    """Run the measuring binary; return (exit code, stdout lines)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before the run could start")
    command = [str(BINARY), "--expected", str(EXPECTED),
               "--threads", str(nproc()),
               "--spawn-ns", str(time.monotonic_ns()), *args]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)} did not finish within the run budget")
    return done.returncode, done.stdout.splitlines()


def parse_result(lines):
    if not lines:
        fail("measuring process printed nothing")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"measuring process printed no result: {lines[-1]!r}")


def expected_metrics(trace):
    """Metric name → unit that BENCHMARK.json promises for this mode."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run(args):
    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    info = provenance()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]

    attempted = failed = 0
    correct = True
    setups = []
    if not args.trace:
        for i in range(1 + SETUP_ONLY_PROCESSES):
            code, lines = spawn([*common, "--trace", "0", "--setup-only"],
                                deadline)
            result = parse_result(lines)
            if i > 0:
                setups.append(result["setup_s"])
            attempted += result["attempted"]
            failed += result["failed"]
            correct = correct and code == 0 and result["correct"]

    extra = []
    if args.trace:
        spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        extra = ["--spans", str(spans)]
    code, lines = spawn([*common, "--trace", "1" if args.trace else "0",
                         *extra], deadline)
    result = parse_result(lines)
    if code not in (0, 1):
        fail(f"measuring process exited with status {code}")
    attempted += result["attempted"]
    failed += result["failed"]
    correct = correct and code == 0 and result["correct"]

    if attempted < 1:
        fail("no op was attempted")
    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        # fail_rate covers every process of the run, not only this one.
        metrics["pass_rate"] = {"value": 1.0 - failed / attempted,
                                "unit": "fraction"}

    promised = expected_metrics(args.trace)
    if promised is not None:
        got = {name: m["unit"] for name, m in metrics.items()}
        if got != promised:
            fail(f"metrics {sorted(got.items())} do not match "
                 f"BENCHMARK.json {sorted(promised.items())}")

    for line in lines[:-1]:
        print(line)
    print("provenance:", json.dumps(info, sort_keys=True))
    if setups:
        print("setup_s samples:", json.dumps(setups))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def self_test():
    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    code, lines = spawn(["--self-test"], deadline)
    for line in lines:
        print(line)
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark's own logic and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in 1..120")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

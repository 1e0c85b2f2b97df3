#!/usr/bin/env python3
"""End-to-end check that a resumed run reports whole-run metrics.

Usage: scripts/check_resume_metrics.py [RM_INSPECT] [--cut CYCLE]

Runs `rm-inspect --allocator regmutex --half-rf SPMV` three times in a
scratch directory: once uninterrupted with --csv, once preempted at
--max-cycles CYCLE (default 25000) with --snapshot, and once resumed
from that snapshot with --csv and --json. Exits 1 unless

  - every sampled row of the resumed run equals the uninterrupted run's
    row at the same cycle, except the columns that cover the current
    process only (the srp.acquire_wait_cycles histogram and the
    sim.snapshots / sim.restores counters), and
  - every counter in the resumed JSON equals the SimStats field it
    publishes (docs/OBSERVABILITY.md, "Metric catalog").

RM_INSPECT defaults to build/examples/rm-inspect.
"""

import argparse
import csv
import json
import subprocess
import sys
import tempfile
from pathlib import Path

RUN = ["--allocator", "regmutex", "--half-rf"]
KERNEL = "SPMV"

# Counter name -> function of the stats JSON object.
COUNTERS = {
    "issue.slots_issued": lambda s: s["issued_slots"],
    "issue.idle_slots": lambda s: s["idle_scheduler_slots"],
    "issue.instructions": lambda s: s["instructions"],
    "stall.scoreboard": lambda s: s["stalls"]["scoreboard"],
    "stall.mem_structural": lambda s: s["stalls"]["mem_structural"],
    "stall.barrier": lambda s: s["stalls"]["barrier"],
    "stall.acquire": lambda s: s["stalls"]["acquire"],
    "stall.resource": lambda s: s["stalls"]["resource"],
    "stall.no_warp": lambda s: s["stalls"]["no_warp"],
    "srp.acquire_attempts": lambda s: s["acquire_attempts"],
    "srp.acquire_successes": lambda s: s["acquire_successes"],
    "srp.acquire_blocked":
        lambda s: s["acquire_attempts"] - s["acquire_successes"],
    "srp.releases": lambda s: s["releases"],
    "sim.emergency_spills": lambda s: s["emergency_spills"],
}
PROCESS_LOCAL = {"sim.snapshots", "sim.restores"}


def process_local(column):
    return (column in PROCESS_LOCAL or
            column.startswith("srp.acquire_wait_cycles."))


def inspect(binary, *args, expect=0):
    cmd = [str(binary), *RUN, *map(str, args), KERNEL]
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    if done.returncode != expect:
        sys.exit(f"error: {' '.join(cmd)} exited {done.returncode}, "
                 f"expected {expect}")


def read_series(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    return header[1:], {int(r[0]): r[1:] for r in body}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rm_inspect", nargs="?",
                        default="build/examples/rm-inspect")
    parser.add_argument("--cut", type=int, default=25000)
    args = parser.parse_args()
    binary = Path(args.rm_inspect).resolve()

    with tempfile.TemporaryDirectory(prefix="rm-resume-metrics.") as tmp:
        work = Path(tmp)
        inspect(binary, "--csv", work / "whole.csv")
        inspect(binary, "--max-cycles", str(args.cut),
                "--snapshot", work / "cut.snap", expect=3)
        inspect(binary, "--restore", work / "cut.snap",
                "--csv", work / "resumed.csv",
                "--json", work / "resumed.json")

        columns, whole = read_series(work / "whole.csv")
        resumed_columns, resumed = read_series(work / "resumed.csv")
        doc = json.loads((work / "resumed.json").read_text())

    failures = []
    if resumed_columns != columns:
        failures.append("resumed CSV columns differ from the whole run's")
    common = sorted(set(whole) & set(resumed))
    if not common:
        failures.append("no sampled cycle in common")
    bad_rows = 0
    bad_columns = set()
    for cycle in common:
        diff = {c for c, a, b in zip(columns, whole[cycle], resumed[cycle])
                if a != b and not process_local(c)}
        if diff:
            bad_rows += 1
            bad_columns |= diff
    if bad_rows:
        failures.append(
            f"{bad_rows} of {len(common)} resumed rows mismatch on "
            f"{len(bad_columns)} columns: {', '.join(sorted(bad_columns))}")

    stats = doc["stats"]
    counters = doc["metrics"]["counters"]
    for name, field in COUNTERS.items():
        if counters.get(name) != field(stats):
            failures.append(f"counter {name} = {counters.get(name)}, "
                            f"stats say {field(stats)}")

    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    if failures:
        return 1
    print(f"ok: {len(common)} resumed rows match the whole run; "
          f"{len(COUNTERS)} counters match the resumed stats")
    return 0


if __name__ == "__main__":
    sys.exit(main())

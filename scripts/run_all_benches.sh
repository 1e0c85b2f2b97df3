#!/usr/bin/env bash
# Regenerate every reproduced table and figure (see EXPERIMENTS.md) and
# collect their machine-readable JSON reports under results/<timestamp>/.
# Usage: scripts/run_all_benches.sh [build-dir] [results-root]
#
# The bench list comes from the sources: the build makes one binary per
# bench/*.cc (figure_bench in bench/CMakeLists.txt), and each of them is
# required. A binary in the build tree with no source left (the output
# of a deleted target, which an incremental build never removes) is
# not run.
#
# Robustness: each bench runs under a wall-clock timeout
# (RM_BENCH_TIMEOUT seconds, default 900, 0 disables) so one wedged
# bench cannot stall the whole batch, and an interrupted or aborted run
# leaves an INCOMPLETE marker in the results directory so partial
# output is never mistaken for a finished batch.
set -euo pipefail

BUILD="${1:-build}"
RESULTS_ROOT="${2:-results}"
TIMEOUT_SECS="${RM_BENCH_TIMEOUT:-900}"
SRC_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

if [ ! -d "$BUILD/bench" ]; then
    echo "error: $BUILD/bench not found — build first:" >&2
    echo "  cmake -B $BUILD -S . && cmake --build $BUILD -j" >&2
    exit 1
fi

# The figure/table benches write a BenchReport with --json.
REPORTS=(
    fig01_liveness_timeline
    fig02_two_warp_example
    fig07_occupancy_boost
    fig08_half_register_file
    fig09a_comparison_baseline
    fig09b_comparison_half_rf
    fig10_es_sensitivity
    fig11_acquire_analysis
    fig12_paired_warps
    fig13_acquire_success
    table1_workloads
)
BENCHES=()
for src in "$SRC_ROOT"/bench/*.cc; do
    BENCHES+=("$(basename "$src" .cc)")
done

# Every bench must exist: a missing binary means a broken build, and a
# report bench with no source was renamed without updating REPORTS.
missing=0
for name in "${REPORTS[@]}"; do
    if [ ! -f "$SRC_ROOT/bench/$name.cc" ]; then
        echo "error: report bench has no source: $SRC_ROOT/bench/$name.cc" >&2
        missing=1
    fi
done
for name in "${BENCHES[@]}"; do
    if [ ! -x "$BUILD/bench/$name" ]; then
        echo "error: required bench binary missing: $BUILD/bench/$name" >&2
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    echo "error: rebuild before running: cmake --build $BUILD -j" >&2
    exit 1
fi

# Per-bench timeout command; coreutils timeout may be absent on some
# systems, in which case benches run unbounded (with a warning).
TIMEOUT_CMD=()
if [ "$TIMEOUT_SECS" -gt 0 ] 2>/dev/null; then
    if command -v timeout >/dev/null 2>&1; then
        TIMEOUT_CMD=(timeout --kill-after=30 "$TIMEOUT_SECS")
    else
        echo "warn: 'timeout' not found; benches run without a wall limit" >&2
    fi
fi

STAMP="$(date +%Y%m%d-%H%M%S)"
OUTDIR="$RESULTS_ROOT/$STAMP"
mkdir -p "$OUTDIR"
echo "JSON reports -> $OUTDIR"
echo

# Until the batch finishes, the results directory is marked INCOMPLETE;
# the trap keeps the marker (with a reason) if we exit early for any
# reason — a failed bench, Ctrl-C, or a crash in this script.
DONE=0
echo "bench batch started $(date -u +%Y-%m-%dT%H:%M:%SZ); still running or aborted" \
    > "$OUTDIR/INCOMPLETE"
finish() {
    if [ "$DONE" -ne 1 ]; then
        echo "bench batch did not complete; partial results only" \
            >> "$OUTDIR/INCOMPLETE"
        echo "** batch incomplete — see $OUTDIR/INCOMPLETE" >&2
    fi
}
trap finish EXIT

# Wall-time trend: each bench's duration lands in bench_times.txt
# ("name seconds", one line per bench) inside the results dir, and the
# newest earlier batch with the same file is the comparison baseline —
# a bench running slower than 2x its previous time gets a loud warning
# (collected and repeated at the end) without failing the batch.
PREV_TIMES=""
for dir in $(ls -1d "$RESULTS_ROOT"/*/ 2>/dev/null | sort -r); do
    [ "${dir%/}" = "$OUTDIR" ] && continue
    if [ -f "$dir/bench_times.txt" ] && [ ! -f "$dir/INCOMPLETE" ]; then
        PREV_TIMES="$dir/bench_times.txt"
        break
    fi
done
if [ -n "$PREV_TIMES" ]; then
    echo "comparing bench times against $PREV_TIMES"
fi
SLOW=()

# Fault isolation: one failing bench must not silence the rest. Every
# bench runs; failures are collected and summarized at the end, and the
# script exits nonzero if any failed. Exit 124 from timeout is reported
# as such — a hang is a different bug than a wrong result.
FAILED=()
run_bench() {
    local name="$1"; shift
    echo "==================================================================="
    echo "== $name"
    echo "==================================================================="
    local status=0
    local begin_ns end_ns secs
    begin_ns=$(date +%s%N)
    "${TIMEOUT_CMD[@]}" "$@" || status=$?
    end_ns=$(date +%s%N)
    secs=$(awk -v b="$begin_ns" -v e="$end_ns" 'BEGIN {printf "%.2f", (e - b) / 1e9}')
    echo "$name $secs" >> "$OUTDIR/bench_times.txt"
    echo "-- $name took ${secs}s"
    if [ -n "$PREV_TIMES" ]; then
        local prev
        prev=$(awk -v n="$name" '$1 == n {print $2; exit}' "$PREV_TIMES")
        if [ -n "$prev" ] && \
           awk -v now="$secs" -v old="$prev" 'BEGIN {exit !(old > 0 && now > 2 * old)}'; then
            echo "** WARN: $name took ${secs}s, more than 2x its previous ${prev}s" >&2
            SLOW+=("$name (${prev}s -> ${secs}s)")
        fi
    fi
    if [ "$status" -eq 124 ] || [ "$status" -eq 137 ]; then
        echo "** $name TIMED OUT after ${TIMEOUT_SECS}s (exit $status)" >&2
        FAILED+=("$name (timeout)")
    elif [ "$status" -ne 0 ]; then
        echo "** $name FAILED (exit $status)" >&2
        FAILED+=("$name")
    fi
    echo
}

for name in "${REPORTS[@]}"; do
    run_bench "$name" "$BUILD/bench/$name" --json "$OUTDIR/$name.json"
done

# Benches with no figure/table report still run.
for name in "${BENCHES[@]}"; do
    for report in "${REPORTS[@]}"; do
        [ "$name" = "$report" ] && continue 2
    done
    run_bench "$name" "$BUILD/bench/$name"
done

# Every bench was at least attempted: the batch is complete (even if
# some benches failed — that is what the exit status reports).
DONE=1
rm -f "$OUTDIR/INCOMPLETE"

if [ "${#SLOW[@]}" -ne 0 ]; then
    echo "===================================================================" >&2
    echo "${#SLOW[@]} bench(es) ran slower than 2x their previous time:" >&2
    for entry in "${SLOW[@]}"; do
        echo "  SLOW  $entry" >&2
    done
fi

if [ "${#FAILED[@]}" -ne 0 ]; then
    echo "===================================================================" >&2
    echo "${#FAILED[@]} bench(es) FAILED:" >&2
    for name in "${FAILED[@]}"; do
        echo "  FAIL  $name" >&2
    done
    echo "Reports for passing benches are in $OUTDIR." >&2
    exit 1
fi

echo "All benches passed; reports in $OUTDIR:"
ls -1 "$OUTDIR"

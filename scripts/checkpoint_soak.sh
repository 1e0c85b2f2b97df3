#!/usr/bin/env bash
# Checkpoint soak: prove that a sweep killed with SIGKILL mid-grid
# — the ungraceful death a preemptible batch system actually delivers —
# resumes from its JSONL checkpoint and produces a report
# byte-identical to an uninterrupted run.
#
# Usage: scripts/checkpoint_soak.sh [build-dir]
#   RM_SOAK_KILLS    max SIGKILLs to deliver (default 3)
#   RM_SOAK_BENCH    sweep bench to soak (default fig07_occupancy_boost)
#
# Exits nonzero if the resumed report differs from the reference, if
# the sweep cannot finish within the kill budget + one clean run, or if
# no kill landed mid-run (the soak proved nothing — raise the grid size
# or slow the build down).
set -euo pipefail

BUILD="${1:-build}"
BENCH="${RM_SOAK_BENCH:-fig07_occupancy_boost}"
KILLS="${RM_SOAK_KILLS:-3}"
BIN="$BUILD/bench/$BENCH"

if [ ! -x "$BIN" ]; then
    echo "error: $BIN not found — build first" >&2
    exit 1
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/rm-checkpoint-soak.XXXXXX")"
BENCH_PID=""
# An early exit (failed check, Ctrl-C during the kill-delay sleep) must
# not orphan a backgrounded bench: it would keep simulating for minutes
# and append to a checkpoint in a directory this trap just deleted.
cleanup() {
    [ -n "$BENCH_PID" ] && kill -KILL "$BENCH_PID" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM
CHECKPOINT="$WORK/sweep.jsonl"

now_ms() { echo $(( $(date +%s%N) / 1000000 )); }

echo "== reference run (uninterrupted)"
ref_start="$(now_ms)"
"$BIN" --json "$WORK/reference.json" > /dev/null
ref_ms=$(( $(now_ms) - ref_start ))
echo "   reference finished in ${ref_ms}ms"

SOAK_ARGS=(--checkpoint "$CHECKPOINT" --threads 2
           --json "$WORK/resumed.json")

killed=0
for attempt in $(seq 1 "$KILLS"); do
    # Kill at a different fraction of the reference runtime each round
    # (40%, 60%, 80%, ...) so the grid dies in different states.
    delay_ms=$(( ref_ms * (attempt + 1) * 2 / 10 ))
    [ "$delay_ms" -lt 50 ] && delay_ms=50
    echo "== soak round $attempt: SIGKILL after ~${delay_ms}ms"
    "$BIN" "${SOAK_ARGS[@]}" > /dev/null 2>&1 &
    BENCH_PID=$!
    sleep "$(awk "BEGIN {print $delay_ms / 1000}")"
    if kill -KILL "$BENCH_PID" 2>/dev/null; then
        killed=$((killed + 1))
        echo "   killed pid $BENCH_PID mid-run"
    else
        echo "   run finished before the kill landed"
    fi
    wait "$BENCH_PID" 2>/dev/null || true
    BENCH_PID=""
    lines=0
    [ -f "$CHECKPOINT" ] && lines=$(wc -l < "$CHECKPOINT")
    echo "   durable state: $lines checkpointed cells"
done

if [ "$killed" -eq 0 ]; then
    echo "error: no kill landed mid-run — the soak proved nothing" >&2
    exit 1
fi

echo "== final run: resume from the checkpoint"
"$BIN" "${SOAK_ARGS[@]}" > /dev/null

echo "== comparing resumed report against the reference"
# The reports carry no timestamps or host data: a correct resume is
# byte-identical to the uninterrupted run.
if ! cmp "$WORK/reference.json" "$WORK/resumed.json"; then
    diff -u "$WORK/reference.json" "$WORK/resumed.json" | head -40 >&2
    echo "error: resumed report differs from reference" >&2
    exit 1
fi

echo "checkpoint soak OK: $killed kill(s) survived, report byte-identical"

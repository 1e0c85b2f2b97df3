#ifndef RM_CORE_SWEEP_HH
#define RM_CORE_SWEEP_HH

/**
 * @file
 * Parallel sweep runner: executes a (workload × policy × config) grid
 * of simulations on the shared thread pool with deterministic seeding
 * and deterministic result ordering. This is the engine behind the
 * figure/table benches — each bench declares its grid, calls
 * runSweep(), and formats the results.
 *
 *     std::vector<rm::SweepCase> grid = rm::sweepGrid(
 *         rm::occupancyLimitedSet(), {"baseline", "regmutex"},
 *         {{"GTX480", rm::gtx480Config()}});
 *     auto results = rm::runSweep(grid);
 *     // results[i] corresponds to grid[i], independent of timing.
 *
 * Determinism: every cell simulates with the same base memory seed
 * (per-SM partitions derive from it inside the Gpu engine), cells are
 * fully independent, and results are stored by case index — so a sweep
 * is bit-identical for any thread count, including serial.
 */

#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "core/policy.hh"
#include "isa/program.hh"
#include "sim/config.hh"
#include "sim/diagnosis.hh"
#include "sim/fault.hh"
#include "sim/gpu.hh"

namespace rm {

/** One cell of a sweep grid. */
struct SweepCase
{
    /** Suite workload name (workloads/suite.hh) — buildWorkload input. */
    std::string workload;
    /** Registered policy name (core/policy.hh). */
    std::string policy;
    /** Architecture label for reports ("GTX480", "half-RF", ...). */
    std::string arch = "GTX480";
    GpuConfig config = gtx480Config();
    CompileOptions compileOptions;
    /**
     * Per-cell fault-injection plan (sim/fault.hh), applied to faultSm
     * (-1: all SMs) of this cell only. The default plan injects
     * nothing; cells with distinct plans get distinct checkpoint keys.
     */
    FaultPlan fault;
    int faultSm = 0;
};

/** How one sweep cell ended. */
enum class SweepStatus {
    Ok,             ///< simulation completed
    CompileFailed,  ///< workload build / policy lookup / compile threw
    LintFailed,     ///< compiled program failed the static lint suite
    SimFailed,      ///< the simulation threw a non-hang error
    Deadlocked,     ///< declared deadlock or watchdog expiry
    Preempted,      ///< stopped by a RunControl limit; snapshot kept
};

/** Stable lower-case label ("ok", "compile-failed", ...). */
const char *sweepStatusName(SweepStatus status);

/** Sweep-level execution knobs. */
struct SweepOptions
{
    /**
     * Case-level parallelism: 0 (default) uses the shared pool's full
     * width, 1 runs serially, k > 1 caps concurrent cases at k.
     * Results are identical for any value.
     */
    int threads = 0;
    /**
     * Per-case engine options. The default (Representative mode,
     * gpu.threads = 1) matches the seed benches; switch mode to
     * FullMachine for real multi-SM runs. Observability sinks are
     * ignored here — per-case sinks cannot be shared across parallel
     * cells; use runPolicy() directly to instrument a single run.
     */
    GpuOptions gpu;
    /**
     * Extra simulation attempts after a SimFailed/Deadlocked cell (0 =
     * fail immediately). Each retry reseeds memory deterministically
     * (base seed + attempt index), so retried sweeps stay reproducible.
     * Compile failures never retry — they are deterministic.
     */
    int retries = 0;
    /**
     * Run the static lint suite (analysis/lint.hh) over every cell's
     * compiled program before simulating it; a cell with any
     * error-severity finding is marked LintFailed and never reaches
     * the engine — turning a would-be simulated deadlock or silent
     * corruption into a static diagnosis. Per-policy suppressions
     * come from PolicySpec::lintSuppressions.
     */
    bool lint = true;
    /**
     * JSONL checkpoint path; empty disables checkpointing. Every Ok
     * cell appends (and flushes) one line as it completes, and a
     * re-run with the same path restores matching cells (by
     * sweepCaseKey) instead of simulating them again. A torn trailing
     * line from a killed run is warned about and dropped. Restored
     * cells have fromCheckpoint set and an empty per-SM breakdown
     * (only the aggregate is persisted).
     */
    std::string checkpointPath;
    /**
     * fsync the checkpoint file after every Nth appended record (0,
     * the default, keeps the seed behaviour: flushed to the kernel but
     * not fsync'd, so a *host* crash — not just a killed process — can
     * lose trailing records). fsyncEvery = 1 (--fsync-every 1) makes
     * every recorded cell durable.
     */
    int fsyncEvery = 0;
    /**
     * Directory for per-cell engine snapshots (sim/snapshot.hh); empty
     * disables them. Each cell writes <dir>/<key-hash>.snap — on every
     * gpu.snapshotEvery boundary and when preempted — and a later
     * sweep with the same directory resumes the cell from that file
     * instead of restarting it (the file is removed once the cell
     * completes). Works together with gpu.control: bound a sweep with
     * a cycle budget / wall deadline and the interrupted cells carry
     * their progress into the next run. A stale or mismatched snapshot
     * is warned about, deleted, and the cell restarts fresh.
     */
    std::string snapshotDir;
};

/** One cell's outcome; results[i] corresponds to cases[i]. */
struct SweepResult
{
    SweepCase spec;
    PolicyCompile compile;
    GpuResult run;

    SweepStatus status = SweepStatus::Ok;
    /** Failure message (empty when ok). */
    std::string error;
    /** Hang forensics for Deadlocked cells; null otherwise. */
    std::shared_ptr<const HangDiagnosis> diagnosis;
    /** Simulation attempts performed (0: compile failed / restored). */
    int attempts = 0;
    /** True when restored from the checkpoint instead of simulated. */
    bool fromCheckpoint = false;

    bool ok() const { return status == SweepStatus::Ok; }

    /** Machine-level statistics (per-SM breakdown is in run.perSm). */
    const SimStats &stats() const { return run.aggregate; }
};

/**
 * Execute every case, in parallel over the shared thread pool, and
 * return the results in case order. Failures are isolated per cell:
 * a cell that fails to build, compile, or simulate — or that
 * deadlocks — records its SweepStatus, error and (for hangs) the
 * HangDiagnosis on its SweepResult while every other cell runs to
 * completion. runSweep itself only throws on infrastructure errors
 * (e.g. an unwritable checkpoint file).
 */
std::vector<SweepResult> runSweep(const std::vector<SweepCase> &cases,
                                  const SweepOptions &options = {});

/**
 * Stable identity of a cell for checkpointing: workload, policy, arch,
 * a fingerprint of the GpuConfig, compile options and fault plan.
 * Cells that would simulate differently get different keys.
 */
std::string sweepCaseKey(const SweepCase &spec);

/**
 * Print a summary table of the non-Ok cells to @p out (nothing when
 * all cells passed) and return the number of *failed* cells. Preempted
 * cells are not failures: they are listed in a separate "resumable"
 * section — their snapshots carry the progress into the next run —
 * and do not count toward the returned total.
 */
int reportSweepFailures(const std::vector<SweepResult> &results,
                        std::ostream &out);

/**
 * Exit status a sweep-driven bench should propagate, matching the
 * rm-inspect contract (docs/OBSERVABILITY.md): 0 when every cell
 * completed, 3 when cells were preempted but none failed (resumable —
 * rerun with the same --checkpoint/--snapshot-dir to finish), 1 when
 * any cell actually failed.
 */
int sweepExitStatus(const std::vector<SweepResult> &results);

/**
 * Cross-product helper: one case per (workload, policy, config),
 * configs ordered outermost, then workloads, then policies — i.e.
 * grid[(c * W + w) * P + p].
 */
std::vector<SweepCase>
sweepGrid(const std::vector<std::string> &workloads,
          const std::vector<std::string> &policies,
          const std::vector<std::pair<std::string, GpuConfig>> &configs,
          const CompileOptions &compile_options = {});

/**
 * Shared bench command-line handling for the sweep-driven benches:
 * `--sms N` selects a full-machine run with N SMs (N = 1 keeps the
 * representative seed model), `--threads N` caps sweep parallelism
 * (0 = shared pool width), `--retries N` re-runs failed cells, and
 * `--checkpoint PATH` enables the JSONL resume file (with
 * `--fsync-every N` fsyncing it every Nth record). Run-control
 * flags: `--max-cycles N` bounds every cell's simulated clock,
 * `--wall-deadline SECONDS` preempts cells still running when the
 * wall-clock budget expires, `--sanitize` audits register accounting
 * every epoch, `--no-lint` skips the pre-simulation lint gate, and
 * `--snapshot-every N` with `--snapshot-dir DIR` persists per-cell
 * snapshots so an interrupted sweep resumes instead of restarting.
 * Unrecognized arguments are ignored so it composes with BenchReport's
 * `--json`.
 */
struct SweepCli
{
    int sms = 1;
    int threads = 0;
    int retries = 0;
    std::string checkpoint;
    int fsyncEvery = 0;
    std::uint64_t maxCycles = 0;
    double wallDeadlineSeconds = 0.0;
    bool sanitize = false;
    bool noLint = false;
    std::uint64_t snapshotEvery = 0;
    std::string snapshotDir;

    SweepCli(int argc, char *const *argv);

    /** Fold the flags into a bench's config and sweep options. */
    void apply(GpuConfig &config, SweepOptions &options) const;
};

} // namespace rm

#endif // RM_CORE_SWEEP_HH

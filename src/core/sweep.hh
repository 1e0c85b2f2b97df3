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
    SimFailed,      ///< the simulation threw a non-hang error or was
                    ///< preempted by a caller-set gpu.control limit
    Deadlocked,     ///< declared deadlock or watchdog expiry
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
     * FullMachine for real multi-SM runs. Per-run state is stripped
     * from every cell: observability sinks (they cannot be shared
     * across parallel cells; use runPolicy() directly to instrument a
     * single run) and engine snapshots (resume, snapshotSink,
     * snapshotEvery; the checkpoint is the sweep's only durable
     * record). A cell that a gpu.control limit preempts is SimFailed.
     */
    GpuOptions gpu;
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
     * JSONL checkpoint path (core/checkpoint.hh); empty disables
     * checkpointing. Every Ok cell appends and fsyncs one line as it
     * completes, and a re-run with the same path restores matching
     * cells (by sweepCaseKey) instead of simulating them again. A torn
     * trailing line from a killed run is warned about and dropped, and
     * a record whose statistics do not re-encode to the same text (a
     * stats schema change) is warned about and simulated again.
     * Restored cells have fromCheckpoint set and an empty per-SM
     * breakdown (only the aggregate is persisted).
     */
    std::string checkpointPath;
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
 * the GpuConfig's gpuConfigDigest (sim/snapshot.hh), the compile
 * options and the fault plan. Cells that would simulate differently
 * get different keys.
 */
std::string sweepCaseKey(const SweepCase &spec);

/**
 * Print a summary table of the non-Ok cells to @p out (nothing when
 * all cells passed) and return their number. A sweep bench exits 1
 * when it is nonzero.
 */
int reportSweepFailures(const std::vector<SweepResult> &results,
                        std::ostream &out);

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
 * (0 = shared pool width), `--checkpoint PATH` enables the JSONL
 * resume file, `--sanitize` audits register accounting every epoch,
 * and `--no-lint` skips the pre-simulation lint gate. BenchReport's
 * `--json PATH` is passed over. Any other argument, or a missing or
 * malformed value, is a usage error: it is printed to stderr and the
 * process exits 2, as BenchReport does for a bare `--json`.
 */
struct SweepCli
{
    int sms = 1;
    int threads = 0;
    std::string checkpoint;
    bool sanitize = false;
    bool noLint = false;

    SweepCli(int argc, char *const *argv);

    /** Fold the flags into a bench's config and sweep options. */
    void apply(GpuConfig &config, SweepOptions &options) const;
};

} // namespace rm

#endif // RM_CORE_SWEEP_HH

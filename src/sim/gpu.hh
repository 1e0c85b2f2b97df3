#ifndef RM_SIM_GPU_HH
#define RM_SIM_GPU_HH

/**
 * @file
 * Top-level simulation engine. Two modes are supported:
 *
 *  - Representative (the seed model, still the default for the paper
 *    figures): one SM simulates the round-up per-SM grid share and its
 *    cycle count stands in for the machine. Cheap, and sound for
 *    RegMutex's strictly per-SM effects (see DESIGN.md).
 *
 *  - FullMachine: the Gpu engine instantiates config.numSms SMs, each
 *    with its own allocator instance (built by an AllocatorFactory),
 *    its own GlobalMemory partition seed and its own observability
 *    sinks, distributes gridCtas exactly (remainder spread over the
 *    first SMs), runs the SMs on the shared thread pool
 *    (common/thread_pool.hh) and merges the per-SM SimStats into a
 *    machine-level aggregate plus per-SM breakdowns. Per-SM runs are
 *    fully independent, so results are bit-identical for any thread
 *    count.
 */

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "isa/program.hh"
#include "sim/allocator.hh"
#include "sim/config.hh"
#include "sim/fault.hh"
#include "sim/register_map.hh"
#include "sim/snapshot.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace rm {

class MetricsRegistry;
class Sampler;

/**
 * Bundled observability sinks, owned by the caller: an issue-stage
 * trace, a metrics registry the SM publishes its SimStats counts and
 * live gauges into, and an interval sampler the SM feeds at every
 * multiple of its interval. Leaving them null disables the hooks;
 * metrics never feed back into timing, snapshot bytes or skip-ahead.
 * None of the sink types are thread-safe, so in FullMachine mode each
 * SM needs its own set (see GpuOptions::sinksForSm).
 */
struct ObsSinks
{
    IssueTrace *trace = nullptr;
    MetricsRegistry *metrics = nullptr;
    Sampler *sampler = nullptr;
};

/**
 * One SM's allocator stack: the prepared policy instance plus the
 * operand-collector mapping derived from it (policies that rename
 * registers run without one). Factories return this so every SM of a
 * multi-SM run owns an independent instance — RegisterAllocator
 * implementations carry mutable per-run state and must never be shared
 * across concurrently simulated SMs.
 */
struct PreparedAllocator
{
    std::unique_ptr<RegisterAllocator> allocator;
    std::optional<RegisterMapper> mapper;
};

/**
 * Builds and prepares one SM's allocator for @p program on @p config.
 * Must be pure (same inputs => equivalent instance) and thread-safe:
 * the Gpu engine invokes it concurrently, once per SM.
 */
using AllocatorFactory =
    std::function<PreparedAllocator(const GpuConfig &, const Program &)>;

/** Engine-level options for a Gpu run. */
struct GpuOptions
{
    enum class Mode {
        /** One SM with the round-up grid share (the seed model). */
        Representative,
        /** config.numSms SMs with the exact grid distribution. */
        FullMachine,
    };

    Mode mode = Mode::Representative;
    /**
     * SM-level parallelism: 1 (default) simulates SMs sequentially,
     * 0 uses the shared thread pool's full width, k > 1 caps the
     * concurrent SMs at k. Results are identical for any value.
     */
    int threads = 1;
    /**
     * Base memory seed. SM i's GlobalMemory partition is seeded with
     * memSeed + i, so SM 0 reproduces the single-SM contents exactly
     * while the other partitions differ the way distinct grid slices
     * would.
     */
    std::uint64_t memSeed = 1;
    int log2MemWords = 20;
    /** Convenience sinks attached to SM 0 only (often the only SM). */
    ObsSinks obs;
    /**
     * Deterministic fault-injection plan applied to the SM selected by
     * faultSm (-1: every SM). The default plan injects nothing.
     */
    FaultPlan fault;
    int faultSm = 0;
    /**
     * Per-SM observability sinks; overrides `obs` when set. Called
     * once per SM id, when that SM is built in its first leg — from
     * the pool's threads when options.threads != 1, so it must be
     * safe to call concurrently for distinct ids. The returned sinks
     * must not be shared between SMs.
     */
    std::function<ObsSinks(int smId)> sinksForSm;
    /**
     * Run budgets (sim/snapshot.hh). maxCycles bounds every SM's
     * simulated clock; the wall deadline is checked at epoch
     * boundaries; control.sanitize enables the per-epoch
     * register-accounting audit. A default-constructed control runs
     * every SM to completion in one leg.
     */
    RunControl control;
    /**
     * Capture a full-machine snapshot every N simulated cycles of SM
     * progress (0: only on preemption). Snapshots are delivered to
     * snapshotSink and recorded on the trace/metrics sinks; they never
     * touch SimStats, so snapshotted runs stay bit-identical.
     */
    std::uint64_t snapshotEvery = 0;
    /**
     * Receives every captured snapshot (periodic and final). Called
     * from the engine thread between legs, never concurrently.
     */
    std::function<void(const GpuSnapshot &)> snapshotSink;
    /**
     * Resume from a previously captured snapshot instead of launching
     * fresh. The snapshot must match this engine's kernel, policy,
     * mode, SM count and architecture digest (throws SnapshotError on
     * mismatch).
     */
    std::shared_ptr<const GpuSnapshot> resume;
};

/** Outcome of a Gpu engine run. */
struct GpuResult
{
    enum class Status {
        Completed,  ///< every SM retired its grid share (or deadlocked)
        Preempted,  ///< stopped early by a RunControl limit
    };

    /**
     * Machine-level merge of the per-SM statistics: cycles is the
     * slowest SM (machine time), event counts are summed, occupancy
     * figures are per-SM (identical across SMs), avgResidentWarps is
     * the cycle-weighted mean. See mergeSmStats(). On a Preempted run
     * this merges the progress-so-far statistics.
     */
    SimStats aggregate;
    /** One entry per simulated SM, in SM-id order. */
    std::vector<SimStats> perSm;
    /**
     * Host work: the cycles this run's legs stepped one at a time,
     * summed over SMs (Sm::steppedCycles). Skip-ahead accounts for the
     * rest, and a resumed run counts only its own legs. Not simulated
     * state, so it is in neither SimStats nor any snapshot.
     */
    std::uint64_t steppedCycles = 0;

    Status status = Status::Completed;
    /** Which limit fired (None when status == Completed). */
    PreemptReason preemptReason = PreemptReason::None;
    /**
     * Full-machine state captured at the preemption point; resume by
     * passing it back via GpuOptions::resume. Null when Completed.
     */
    std::shared_ptr<const GpuSnapshot> snapshot;

    bool completed() const { return status == Status::Completed; }
    int numSms() const { return static_cast<int>(perSm.size()); }
};

/**
 * The multi-SM engine. Construction captures the inputs; run()
 * simulates every SM (in parallel when options.threads != 1) and
 * merges the results. The config, program and factory must outlive
 * the engine.
 */
class Gpu
{
  public:
    Gpu(const GpuConfig &config, const Program &program,
        AllocatorFactory factory, GpuOptions options = {});

    /**
     * Simulate all SMs and merge their statistics. Every run is a loop
     * of legs: each unfinished SM runs until completion, its next
     * snapshot boundary or a RunControl limit. An SM's allocator,
     * memory and Sm are built in its first leg (restored from
     * options.resume when set) and freed as soon as it finishes.
     * Throws FatalError when the config or kernel is outside the
     * engine's envelope (kEngineWordBits warp slots per SM and
     * registers per thread).
     */
    GpuResult run();

  private:
    const GpuConfig &config;
    const Program &program;
    AllocatorFactory factory;
    GpuOptions options;
};

/** One-shot convenience wrapper around the Gpu engine. */
GpuResult simulateGpu(const GpuConfig &config, const Program &program,
                      const AllocatorFactory &factory,
                      GpuOptions options = {});

/**
 * CTAs SM @p sm_id executes for a @p grid_ctas-CTA grid under
 * @p config: floor(grid/numSms), with the remainder spread one CTA
 * each over the first (grid % numSms) SMs — the shares sum to exactly
 * grid_ctas.
 */
int ctasForSm(const GpuConfig &config, int grid_ctas, int sm_id);

/**
 * CTAs the representative SM executes for this grid: the largest
 * per-SM share, i.e. ctasForSm(config, gridCtas, 0). (The historical
 * round-up formula over-simulated the machine total on grids that do
 * not divide evenly; the multi-SM engine launches exactly gridCtas —
 * use ctasForSm per SM.)
 */
int ctasPerSmShare(const GpuConfig &config, const Program &program);

/**
 * Merge per-SM run statistics into the machine-level aggregate (see
 * GpuResult::aggregate for the field-by-field rules). Requires a
 * non-empty vector of stats from the same kernel/policy.
 */
SimStats mergeSmStats(const std::vector<SimStats> &per_sm);

} // namespace rm

#endif // RM_SIM_GPU_HH

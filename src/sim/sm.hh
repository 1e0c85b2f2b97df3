#ifndef RM_SIM_SM_HH
#define RM_SIM_SM_HH

/**
 * @file
 * Streaming Multiprocessor timing model. Warp-granularity, cycle-based:
 * two greedy-then-oldest schedulers issue one instruction per cycle
 * each, gated by a per-warp scoreboard, a bandwidth-limited global
 * memory pipe, CTA barriers, and the pluggable register-allocation
 * policy (baseline / RegMutex / paired / OWF / RFV). Instructions
 * execute functionally at issue; latency is modeled via scoreboard
 * write-completion events.
 *
 * Engine layout (see DESIGN.md "Cycle engine"): per-warp hot state
 * lives in a structure-of-arrays WarpStore with one flat register
 * slab; pending completions sit in a deterministic indexed EventWheel;
 * and when every resident warp is provably waiting on a future event
 * the loop skips straight to the next wakeup, accounting the skipped
 * idle cycles in closed form. All three are bit-identical to the
 * straight per-cycle engine (tests/test_engine_equivalence.cc pins
 * this against pre-refactor goldens).
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "isa/program.hh"
#include "obs/metrics.hh"
#include "obs/sampler.hh"
#include "sim/allocator.hh"
#include "sim/config.hh"
#include "sim/diagnosis.hh"
#include "sim/event_wheel.hh"
#include "sim/fault.hh"
#include "sim/memory.hh"
#include "sim/register_map.hh"
#include "sim/snapshot.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/warp.hh"
#include "sim/warp_store.hh"

namespace rm {

/**
 * Result of a controlled run leg: either done or preempted mid-run.
 * Deliberately two plain enums/bools — the stats live on the Sm
 * (Sm::currentStats()), so a healthy leg boundary copies no strings
 * and touches no shared_ptr refcounts.
 */
struct SmRunOutcome
{
    bool preempted = false;
    PreemptReason reason = PreemptReason::None;
};

/** One SM executing a share of the grid to completion. */
class Sm
{
  public:
    /**
     * @param config     architecture parameters
     * @param program    verified kernel (RegMutex-compiled or not)
     * @param allocator  prepared register-allocation policy
     * @param ctas_to_run how many CTAs this SM executes
     * @param gmem       global memory shared across CTAs
     * @param mapper     optional operand-collector mapping to verify
     *                   every register access against
     * @param metrics    optional metrics registry the SM publishes its
     *                   counts into (see publishMetrics)
     * @param sampler    optional interval sampler; the SM takes a
     *                   sample at every multiple of its interval
     * @param sm_id      machine-level SM id (forensics context only)
     * @param fault      deterministic fault-injection plan (sim/fault.hh);
     *                   the default plan injects nothing
     */
    Sm(const GpuConfig &config, const Program &program,
       RegisterAllocator &allocator, int ctas_to_run, GlobalMemory &gmem,
       std::optional<RegisterMapper> mapper,
       IssueTrace *trace = nullptr, MetricsRegistry *metrics = nullptr,
       Sampler *sampler = nullptr, int sm_id = 0, FaultPlan fault = {});

    /**
     * Simulate under @p control: stop early with a Preempted outcome
     * when the cycle budget or the wall deadline fires, and (when
     * control.sanitize) audit register accounting every epoch —
     * throwing SanitizerError on the first violation. Callable
     * repeatedly: a preempted Sm resumes exactly where it stopped.
     * With a default-constructed control it runs to completion (or
     * declared deadlock — see SimStats::deadlocked/hang)
     * and pays no per-cycle overhead beyond one branch; it throws
     * SimulationError with an attached HangDiagnosis when the watchdog
     * expires.
     */
    SmRunOutcome runControlled(const RunControl &control);

    /** Simulated cycles completed so far (resume bookkeeping). */
    std::uint64_t currentCycle() const { return cycle; }

    /**
     * Cycles the loop executed one at a time since construction;
     * skip-ahead accounted for the rest. Host work, not simulated
     * state: neither SimStats nor the snapshot carries it, so a
     * restored Sm counts from zero.
     */
    std::uint64_t steppedCycles() const { return stepped; }

    /** Statistics as of the last completed run leg (finishStats has
     *  run whenever runControlled returned). */
    const SimStats &currentStats() const { return stats; }

    /**
     * Serialize the complete dynamic state (warp contexts, event and
     * memory queues, scheduler position, allocator state, memory diff,
     * stats) so that restoreState() + runControlled() is bit-identical
     * to an uninterrupted run. Records a Snapshot trace event and bumps
     * the sim.snapshots counter (neither touches SimStats).
     */
    void saveState(SnapshotWriter &w) const;

    /**
     * Inverse of saveState. The Sm must have been constructed with the
     * same config/program/policy/ctas (validated via an identity
     * header; throws SnapshotError on mismatch) and a GlobalMemory of
     * the same geometry and seed, which is reset and then replays the
     * saved store diff. Saved indices are range-checked and the
     * warp/CTA bookkeeping audited, so a damaged image throws
     * SnapshotError rather than corrupting the engine.
     */
    void restoreState(SnapshotReader &r);

    /**
     * Process-wide skip-ahead toggle (default on). Exists so the
     * equivalence tests can run the same workload with and without the
     * fast path and assert bit-identical SimStats; not a tuning knob.
     */
    static void setSkipAhead(bool enabled);
    static bool skipAheadEnabled();

  private:
    // --- Static context ---
    const GpuConfig &config;
    const Program &program;
    RegisterAllocator &allocator;
    GlobalMemory &gmem;
    std::optional<RegisterMapper> mapper;
    IssueTrace *trace;          ///< optional, owned by the caller
    MetricsRegistry *metrics;   ///< optional, owned by the caller
    Sampler *sampler;           ///< optional, owned by the caller

    /**
     * The only event-driven instruments: what they count has no
     * SimStats field. Every other metric is published from SimStats
     * and live SM state (publishMetrics). All null without a registry.
     */
    Histogram *acquireWait = nullptr;
    Counter *snapshots = nullptr;
    Counter *restores = nullptr;
    /** Next cycle a sample is due (kNoSample without a sampler). */
    std::uint64_t nextSampleCycle = 0;

    const int ctasToRun;
    const int warpsPerCta;
    const int smId;        ///< machine-level id (forensics context)
    const FaultPlan fault; ///< deterministic fault-injection plan
    int residentCap = 0;  ///< max co-resident CTAs for this kernel

    /**
     * Per-instruction issue-check metadata, precomputed once at
     * construction: the union of all operand scoreboard bits as one
     * word plus the global-memory flag, so issueBlocked() is two loads
     * and a mask instead of a per-operand scoreboard walk plus a
     * latency-class switch. The same table powers the WarpStore's
     * incremental issue-clean mask (warp_store.hh), which the
     * scheduler scans.
     */
    std::vector<IssueCheckMeta> issueMeta;
    /** Devirtualization hints cached off the allocator (allocator.hh). */
    bool allocGatesIssue = true;
    bool allocBiasesPriority = true;
    /** Bit set of slots owned by each scheduler (slot % numSchedulers);
     *  masks the WarpStore ready/clean words in the scheduler scan. */
    std::vector<std::uint64_t> schedSlotMask;
    /**
     * Precomputed operand verification for the RegMutex mapper: the
     * number of extended-set operand accesses at each pc. When
     * fastVerify is true (bank-conflict modeling off, every operand
     * statically within |Bs|+|Es|, and the base mapping of every slot
     * provably below the SRP region), verifyOperands() reduces to the
     * held-section invariant check plus one counter add per issue.
     */
    std::vector<std::uint16_t> extOpsByPc;
    bool fastVerify = false;

    // --- Dynamic state ---
    struct ResidentCta
    {
        int ctaId = -1;
        std::vector<int> warpSlots;
        SharedMemory smem;
        int warpsAlive = 0;
        int barrierArrived = 0;
        bool active = false;
    };

    struct MemRequest
    {
        int warpSlot;
        RegId reg;  ///< kNoReg for stores
        /** Generation tag of the issuing warp (see SimEvent). */
        std::uint64_t launchOrder;
    };

    std::uint64_t cycle = 0;
    std::uint64_t stepped = 0;           ///< see steppedCycles()
    std::uint64_t launchCounter = 0;
    WarpStore warps;                     ///< SoA hot state + cold fields
    std::vector<ResidentCta> ctas;       ///< indexed by ctaSlot
    EventWheel events;
    FlatFifo<MemRequest> memQueue;
    std::vector<int> schedLastIssued;    ///< greedy warp per scheduler
    int nextCtaId = 0;
    int residentCtas = 0;
    int aliveWarps = 0;                  ///< resident, not finished
    int pendingConflictPenalty = 0;      ///< operand-collector stall
    std::uint64_t lastProgressCycle = 0;
    bool shrinkApplied = false;   ///< SRP-shrink fault fired already
    bool corruptApplied = false;  ///< state-corruption fault fired already
    bool launched = false;        ///< initial launchCtas() done
    std::uint64_t residentIntegral = 0;  ///< sum of aliveWarps per cycle
    SimStats stats;

    // --- Helpers ---
    void computeResidentCap();
    void launchCtas();
    void retireCta(int cta_slot);
    void processEvents();
    void dispatchMemQueue();
    void schedule(int scheduler);

    /** Block reason when a Ready warp cannot issue this cycle. */
    enum class BlockReason { None, Scoreboard, MemStructural, Resource };
    /** Why warp @p slot cannot issue this cycle (None when it can). */
    BlockReason issueBlocked(int slot) const;

    void issue(int slot);
    void verifyOperands(const SimWarp &warp, const Instruction &inst,
                        int pc);
    void wakeParked();
    void releaseBarrier(ResidentCta &cta);

    /** Move warp @p slot into a Wait* state, stamping waitSince. */
    void park(int slot, WarpState wait_state);

    /**
     * Skip-ahead fast path: on an idle cycle with every resident warp
     * provably waiting on a future wheel event, jump the clock to just
     * before the earliest of {next event, cycle budget, next epoch
     * boundary, next sample, pending one-shot fault, watchdog expiry}
     * and account the skipped idle cycles in closed form. Bit-identical
     * to ticking them (the per-cycle bookkeeping of an idle span is a
     * pure function of the frozen machine state).
     */
    void skipAhead(const RunControl &control, bool epoch_work);

    /** The per-cycle idle bookkeeping of schedule(), times @p n. */
    void accountIdleCycles(std::uint64_t n);

    /**
     * Charge @p n idle cycles of @p scheduler to one stall reason: the
     * @p sample verdict of its first blocked Ready warp, else what its
     * first waiting warp waits on, else no warp at all.
     */
    void chargeIdle(int scheduler, BlockReason sample, std::uint64_t n);

    /**
     * Outcome of the starvation check (no instruction issued and no
     * event/memory activity this cycle).
     */
    enum class Starvation {
        Runnable,     ///< a warp can still issue: not starving
        Waiting,      ///< quiet but events are pending in the future
        BreakerFired, ///< deadlock breaker forced progress (counts as
                      ///< progress: the watchdog clock resets)
        Deadlocked,   ///< wedged beyond repair: simulation must stop
    };
    Starvation handleStarvation();

    /** Snapshot the wedged machine state for forensics. */
    std::shared_ptr<const HangDiagnosis>
    captureDiagnosis(DeadlockCause cause, bool watchdog_expired) const;

    /** Classify why the SM is wedged from the current warp states
     *  (Acquire > Resource > Barrier). */
    DeadlockCause classifyWedge() const;

    /** Fill the derived SimStats fields and publish the metric catalog
     *  (idempotent; runs at every leg end). */
    void finishStats();

    /**
     * Write the metric catalog into the attached registry: counters
     * are the kSummedCounters rows that name a metric, plus
     * instructions and blocked acquires; gauges are live SM state (see
     * docs/OBSERVABILITY.md). Runs at every sample and leg end, so a
     * resumed run reports whole-run totals.
     */
    void publishMetrics() const;

    /** Publish, sample, and arm the next sample cycle. */
    void takeSample();

    /** First sample cycle after the current one (kNoSample if none). */
    std::uint64_t sampleCycleAfterNow() const;

    /**
     * Warp/CTA bookkeeping invariants (slot ownership, per-CTA and
     * SM-wide counts, pc and outstanding-request ranges); appends one
     * line per violation. Shared by the sanitizer and restoreState.
     */
    void auditStructure(std::vector<std::string> &violations) const;

    /** Sanitizer epoch audit; throws SanitizerError on violation. */
    void auditEpoch();
};

inline Sm::BlockReason
Sm::issueBlocked(int slot) const
{
    const int pc = warps.pc(slot);
    const IssueCheckMeta &meta = issueMeta[pc];
    // Scoreboard: RAW / WAW against in-flight writes, one mask test.
    if (warps.sbWord(slot) & meta.opMask)
        return BlockReason::Scoreboard;
    // Structural: outstanding global-memory limit.
    if (meta.globalMem &&
        warps.pendingMem(slot) >= config.maxPendingMemPerWarp) {
        return BlockReason::MemStructural;
    }
    // Policy gate (OWF pair lock, RFV physical registers); skipped
    // outright for policies that never gate.
    if (allocGatesIssue &&
        !allocator.canIssue(warps.warp(slot), program.code[pc])) {
        return BlockReason::Resource;
    }
    return BlockReason::None;
}

} // namespace rm

#endif // RM_SIM_SM_HH

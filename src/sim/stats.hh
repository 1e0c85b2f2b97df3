#ifndef RM_SIM_STATS_HH
#define RM_SIM_STATS_HH

/**
 * @file
 * Statistics collected by a timing-simulation run. These are the raw
 * series every reproduced figure is computed from: execution cycles
 * (Figs 7-10, 12), theoretical occupancy (Figs 7, 8, 11a, 12), and
 * acquire attempt/success counts (Figs 11b, 13).
 */

#include <cstdint>
#include <memory>
#include <string>

namespace rm {

struct HangDiagnosis;

/**
 * Why a wedged SM could not make progress, recorded when the deadlock
 * breaker gives up (see Sm::handleStarvation). Classification is by
 * precedence — a blocked acquire is the root cause even when barrier
 * waiters outnumber it, because barrier waiters are downstream of the
 * warps that cannot acquire.
 */
enum class DeadlockCause {
    None,      ///< not deadlocked
    Acquire,   ///< warps blocked on an extended-set acquire (RegMutex)
    Resource,  ///< warps blocked on policy resources, breaker exhausted
    Barrier,   ///< only barrier waiters remain (broken barrier contract)
};

/** Stable lower-case name ("none", "acquire", ...). */
const char *deadlockCauseName(DeadlockCause cause);

/** Inverse of deadlockCauseName(); DeadlockCause::None when unknown. */
DeadlockCause deadlockCauseFromName(const std::string &name);

/** Result of one kernel timing simulation on one SM. */
struct SimStats
{
    std::string kernelName;
    std::string allocatorName;

    // --- Primary outputs ---
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t ctasCompleted = 0;

    /** Theoretical occupancy at launch (resident-warp capacity). */
    int theoreticalCtas = 0;
    int theoreticalWarps = 0;
    double theoreticalOccupancy = 0.0;

    /** Time-averaged resident warps (measured occupancy). */
    double avgResidentWarps = 0.0;

    // --- RegMutex extended-set statistics ---
    std::uint64_t acquireAttempts = 0;
    std::uint64_t acquireSuccesses = 0;
    std::uint64_t acquireAlreadyHeld = 0;
    std::uint64_t releases = 0;

    // --- Issue accounting ---
    std::uint64_t issuedSlots = 0;      ///< scheduler slots that issued
    std::uint64_t idleSchedulerSlots = 0;

    // --- Stall reasons sampled on failed scheduler picks ---
    std::uint64_t scoreboardStalls = 0;
    std::uint64_t memStructuralStalls = 0;
    std::uint64_t barrierStalls = 0;
    std::uint64_t acquireStalls = 0;
    std::uint64_t resourceStalls = 0;   ///< RFV phys-reg / OWF lock waits
    std::uint64_t noWarpStalls = 0;     ///< no resident warp at all

    // --- Policy-specific ---
    std::uint64_t emergencySpills = 0;  ///< RFV deadlock-breaker events
    std::uint64_t lockAcquisitions = 0; ///< OWF pair-lock takeovers
    std::uint64_t extRegAccesses = 0;   ///< operand accesses mapped to SRP
    std::uint64_t bankConflicts = 0;    ///< operand-collector conflicts

    /** Injected faults that fired (sim/fault.hh); 0 without a plan. */
    std::uint64_t faultEvents = 0;

    bool deadlocked = false;
    DeadlockCause deadlockCause = DeadlockCause::None;
    /**
     * Forensics snapshot captured when the SM declared a deadlock
     * (sim/diagnosis.hh); null on healthy runs. Shared so copying
     * stats stays cheap; never feeds back into timing.
     */
    std::shared_ptr<const HangDiagnosis> hang;

    /** Instructions per cycle. */
    double ipc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(instructions) / cycles;
    }

    /** Fraction of executed acquires that succeeded (Fig 11b / 13). */
    double acquireSuccessRate() const
    {
        const std::uint64_t attempts = acquireAttempts;
        return attempts == 0
                   ? 1.0
                   : static_cast<double>(acquireSuccesses) / attempts;
    }
};

/** One kSummedCounters row. */
struct SummedCounter
{
    std::uint64_t SimStats::*member;
    /** statsToJson key; "stalls.scoreboard" nests it in "stalls". */
    const char *jsonPath;
    /** The counter Sm::publishMetrics sets from it, or nullptr. */
    const char *metric;
};

/**
 * The SimStats counters that add up across SMs (acquireAttempts
 * through faultEvents), in snapshot order, which is also their
 * statsToJson order. mergeSmStats sums them, operator== compares them,
 * the snapshot and JSON codecs encode them and Sm::publishMetrics
 * publishes them, so a new counter is one row here (DESIGN.md, "Adding
 * a counter").
 */
inline constexpr SummedCounter kSummedCounters[] = {
    {&SimStats::acquireAttempts, "acquire_attempts", "srp.acquire_attempts"},
    {&SimStats::acquireSuccesses, "acquire_successes",
     "srp.acquire_successes"},
    {&SimStats::acquireAlreadyHeld, "acquire_already_held", nullptr},
    {&SimStats::releases, "releases", "srp.releases"},
    {&SimStats::issuedSlots, "issued_slots", "issue.slots_issued"},
    {&SimStats::idleSchedulerSlots, "idle_scheduler_slots",
     "issue.idle_slots"},
    {&SimStats::scoreboardStalls, "stalls.scoreboard", "stall.scoreboard"},
    {&SimStats::memStructuralStalls, "stalls.mem_structural",
     "stall.mem_structural"},
    {&SimStats::barrierStalls, "stalls.barrier", "stall.barrier"},
    {&SimStats::acquireStalls, "stalls.acquire", "stall.acquire"},
    {&SimStats::resourceStalls, "stalls.resource", "stall.resource"},
    {&SimStats::noWarpStalls, "stalls.no_warp", "stall.no_warp"},
    {&SimStats::emergencySpills, "emergency_spills", "sim.emergency_spills"},
    {&SimStats::lockAcquisitions, "lock_acquisitions", nullptr},
    {&SimStats::extRegAccesses, "ext_reg_accesses", nullptr},
    {&SimStats::bankConflicts, "bank_conflicts", nullptr},
    {&SimStats::faultEvents, "fault_events", nullptr},
};

/**
 * Bit-exact equality over every counter and derived value (doubles
 * compare by value, which for our deterministic pipeline means by bit
 * pattern). The hang forensics pointer compares by presence only: two
 * equally-deadlocked runs carry equivalent but separately-allocated
 * diagnoses. This is the invariant the snapshot/restore tests assert:
 * restore-then-run == uninterrupted run.
 */
bool operator==(const SimStats &a, const SimStats &b);
inline bool operator!=(const SimStats &a, const SimStats &b)
{
    return !(a == b);
}

/**
 * Relative cycle delta of @p technique versus @p baseline:
 * positive = reduction (improvement), as in paper Figs 7/9a/10;
 * negate for the "increase" plots (Figs 8/9b/12b).
 */
double cycleReduction(const SimStats &baseline, const SimStats &technique);

} // namespace rm

#endif // RM_SIM_STATS_HH

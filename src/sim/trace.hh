#ifndef RM_SIM_TRACE_HH
#define RM_SIM_TRACE_HH

/**
 * @file
 * Issue-stage event trace for debugging and for visualizing the
 * Fig. 2-style warp timelines: a bounded ring buffer of
 * (cycle, warp, pc, event) records the SM appends to when a trace is
 * attached (ObsSinks::trace), bounded so long runs cannot exhaust
 * memory. obs/export.hh renders it as a Chrome trace.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rm {

/** What happened at the issue stage. */
enum class TraceKind : std::uint8_t {
    Issue,          ///< instruction issued
    AcquireOk,      ///< extended set acquired
    AcquireBlocked, ///< acquire failed; warp parked
    Release,        ///< extended set released
    BarrierWait,    ///< warp arrived at a barrier
    WarpExit,
    CtaLaunch,
    CtaRetire,
    Snapshot,       ///< engine state captured (sim/snapshot.hh)
    Restore,        ///< engine state restored from a snapshot
};

/** One trace record. */
struct TraceEvent
{
    std::uint64_t cycle = 0;
    int warpSlot = -1;
    int ctaId = -1;
    int pc = -1;
    TraceKind kind = TraceKind::Issue;
};

/** Bounded ring buffer of issue-stage events. */
class IssueTrace
{
  public:
    /** @param capacity maximum retained events (oldest evicted). */
    explicit IssueTrace(std::size_t capacity = 4096);

    void record(TraceEvent event);

    /** Events currently retained, oldest first. */
    std::vector<TraceEvent> events() const;

    std::size_t size() const { return count; }
    std::uint64_t totalRecorded() const { return recorded; }

    /** Human-readable kind name. */
    static const char *kindName(TraceKind kind);

  private:
    std::vector<TraceEvent> ring;
    std::size_t head = 0;   ///< next write position
    std::size_t count = 0;  ///< valid entries
    std::uint64_t recorded = 0;
};

} // namespace rm

#endif // RM_SIM_TRACE_HH

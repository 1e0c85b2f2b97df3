#ifndef RM_OBS_PROFILER_HH
#define RM_OBS_PROFILER_HH

/**
 * @file
 * rm-prof: low-overhead scoped-span self-profiling for the simulator's
 * host-side phases. The engine is instrumented with RM_PROF_SCOPE()
 * spans — Sm cycle-loop sub-phases, Gpu per-SM legs, ThreadPool task
 * wait/run, runSweep per-cell legs — and a report merges every
 * thread's measurements into a per-phase attribution plus (for the
 * coarse phases) a Chrome-traceable span timeline.
 *
 * Design constraints, in priority order:
 *
 *  1. Zero behavioral change. The profiler only ever reads monotonic
 *     clocks and writes its own buffers; it never touches simulation
 *     state, so stats stay bit-identical with profiling on, off, or
 *     compiled out (tests/test_profiler.cc enforces this).
 *  2. Negligible cost when runtime-disabled: one relaxed atomic load
 *     and a predictable branch per site. Defining RM_PROFILER_DISABLED
 *     at compile time turns every site into a true no-op.
 *  3. Lock-free recording. Each thread accumulates into its own
 *     buffer (registered once per thread under a mutex, then never
 *     shared); Profiler::report() merges at quiescence.
 *
 * Phases come in two flavors. *Hot* phases run inside the SM cycle
 * loop, millions of times per run — they are aggregated only
 * (count / total / max per thread). *Traced* phases are coarse
 * (per-SM legs, pool tasks, sweep cells) — they additionally append a
 * timestamped span record for timeline export (profileChromeTrace in
 * obs/export.hh), capped per thread so a runaway run cannot exhaust
 * memory (overflow is counted, not silently dropped).
 *
 * Usage:
 *
 *     rm::Profiler::enable();
 *     ... run simulations ...
 *     rm::ProfReport rep = rm::Profiler::report();
 *     std::cout << rm::profileTable(rep);
 *     rm::Profiler::disable();
 *
 * enable()/report()/disable() must be called while no instrumented
 * code is running (i.e. at quiescence between runs); recording itself
 * is safe from any thread at any time.
 *
 * Nesting: spans may nest (SmSchedule contains SmIssue contains
 * SmAcqRel; PoolTaskRun contains whatever the task does). Totals are
 * *inclusive* — a reader derives self-time by subtracting children,
 * and the table in profileTable() documents the containment.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rm {

/** Instrumented host-side phases. Order is the report/export order. */
enum class ProfPhase : int {
    // Hot: Sm cycle-loop sub-phases (aggregate-only).
    SmEvents,       ///< completion-event processing (processEvents)
    SmMemDispatch,  ///< global-memory queue dispatch (dispatchMemQueue)
    SmWake,         ///< waking release-parked warps (wakeParked)
    SmSchedule,     ///< scheduler select + issue (contains SmIssue)
    SmIssue,        ///< one warp's issue/interpret (contains SmAcqRel)
    SmAcqRel,       ///< allocator acquire()/release() calls
    SmSanitize,     ///< epoch register-accounting audit (auditEpoch)
    // Traced: coarse engine/harness legs (aggregate + span records).
    GpuCellBuild,   ///< controlled-run SM cell construction
    GpuSmRun,       ///< one SM's run (or run leg); arg = SM id
    GpuMerge,       ///< per-SM statistics merge (mergeSmStats)
    PoolTaskRun,    ///< worker executing a pool task
    PoolTaskWait,   ///< worker blocked waiting for a task
    SweepCompile,   ///< sweep cell: workload build + policy compile
    SweepLint,      ///< sweep cell: static lint gate
    SweepSim,       ///< sweep cell: simulation (all attempts)
    SweepCheckpoint,///< sweep cell: checkpoint record/flush
    NumPhases
};

inline constexpr int kProfPhaseCount = static_cast<int>(ProfPhase::NumPhases);

/** Stable export name ("sm.events", "sweep.sim", ...). */
const char *profPhaseName(ProfPhase phase);

/** True for phases that record timeline spans, not just aggregates. */
constexpr bool
profPhaseTraced(ProfPhase phase)
{
    return static_cast<int>(phase) >=
           static_cast<int>(ProfPhase::GpuCellBuild);
}

/** One recorded span of a traced phase (times relative to enable()). */
struct ProfSpanRecord
{
    std::int32_t phase = 0;   ///< ProfPhase as int
    std::int32_t arg = -1;    ///< site-specific tag (SM id, cell index)
    std::uint32_t thread = 0; ///< profiler thread index (0 = first seen)
    std::uint64_t beginNs = 0;
    std::uint64_t endNs = 0;
};

/** Per-thread recording buffer. Created on first record, never freed. */
struct ProfThreadBuffer
{
    std::uint64_t sessionEpoch = 0; ///< lazily resets on a new session
    std::uint32_t threadIndex = 0;
    std::uint64_t count[kProfPhaseCount] = {};
    std::uint64_t totalNs[kProfPhaseCount] = {};
    std::uint64_t maxNs[kProfPhaseCount] = {};
    std::vector<ProfSpanRecord> spans;
    std::uint64_t droppedSpans = 0;

    /** Per-thread span-record cap; overflow bumps droppedSpans. */
    static constexpr std::size_t kSpanCap = std::size_t{1} << 20;
};

/** Process-wide profiler state. Internal; use Profiler / ProfSpan. */
struct ProfGlobal
{
    std::atomic<bool> enabled{false};
    /** Bumped by enable(); buffers lazily reset when theirs lags. */
    std::atomic<std::uint64_t> epoch{0};
    /** Session origin; span times are nanoseconds since this point. */
    std::chrono::steady_clock::time_point base{};
    std::chrono::steady_clock::time_point enabledAt{};
    std::mutex registryMutex;
    std::vector<std::unique_ptr<ProfThreadBuffer>> buffers;
};

inline ProfGlobal &
profGlobal()
{
    // Intentionally leaked: pool workers can close spans during static
    // teardown (after function-local statics are destroyed), so the
    // profiler state must outlive every other static. Still reachable
    // through this pointer, so leak checkers stay quiet.
    static ProfGlobal *global = new ProfGlobal;
    return *global;
}

/**
 * The hot-path gate. A plain inline atomic (not behind a function-local
 * static) so the disabled check is a single relaxed load + branch.
 */
inline std::atomic<bool> g_profEnabled{false};

inline bool
profilerEnabled()
{
    return g_profEnabled.load(std::memory_order_relaxed);
}

namespace detail {

inline thread_local ProfThreadBuffer *t_profBuffer = nullptr;

/** This thread's buffer; registered with the global list on first use. */
inline ProfThreadBuffer &
profThreadBuffer()
{
    ProfGlobal &global = profGlobal();
    std::lock_guard<std::mutex> lock(global.registryMutex);
    auto owned = std::make_unique<ProfThreadBuffer>();
    owned->threadIndex =
        static_cast<std::uint32_t>(global.buffers.size());
    ProfThreadBuffer *buffer = owned.get();
    global.buffers.push_back(std::move(owned));
    t_profBuffer = buffer;
    return *buffer;
}

inline void
profRecord(ProfPhase phase, int arg,
           std::chrono::steady_clock::time_point begin,
           std::chrono::steady_clock::time_point end)
{
    ProfThreadBuffer *buffer = t_profBuffer;
    if (buffer == nullptr)
        buffer = &profThreadBuffer();

    ProfGlobal &global = profGlobal();
    const std::uint64_t epoch =
        global.epoch.load(std::memory_order_acquire);
    if (buffer->sessionEpoch != epoch) {
        // First record of a new session on this thread: start clean.
        buffer->sessionEpoch = epoch;
        for (int p = 0; p < kProfPhaseCount; ++p) {
            buffer->count[p] = 0;
            buffer->totalNs[p] = 0;
            buffer->maxNs[p] = 0;
        }
        buffer->spans.clear();
        buffer->droppedSpans = 0;
    }

    const int index = static_cast<int>(phase);
    const auto ns = [&](std::chrono::steady_clock::time_point t) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                t - global.base)
                .count());
    };
    const std::uint64_t begin_ns = ns(begin);
    const std::uint64_t end_ns = ns(end);
    const std::uint64_t dur = end_ns - begin_ns;
    ++buffer->count[index];
    buffer->totalNs[index] += dur;
    if (dur > buffer->maxNs[index])
        buffer->maxNs[index] = dur;
    if (profPhaseTraced(phase)) {
        if (buffer->spans.size() < ProfThreadBuffer::kSpanCap) {
            buffer->spans.push_back(ProfSpanRecord{
                static_cast<std::int32_t>(phase),
                static_cast<std::int32_t>(arg), buffer->threadIndex,
                begin_ns, end_ns});
        } else {
            ++buffer->droppedSpans;
        }
    }
}

} // namespace detail

/**
 * RAII span over one phase. Costs one relaxed load when the profiler
 * is disabled; two steady_clock reads plus a thread-local buffer
 * update when enabled. Never throws, never touches simulation state.
 */
class ProfSpan
{
  public:
    explicit ProfSpan(ProfPhase span_phase, int span_arg = -1)
        : phase(span_phase), arg(span_arg)
    {
        if (profilerEnabled()) {
            epoch = profGlobal().epoch.load(std::memory_order_acquire);
            begin = std::chrono::steady_clock::now();
            active = true;
        }
    }

    ProfSpan(const ProfSpan &) = delete;
    ProfSpan &operator=(const ProfSpan &) = delete;

    ~ProfSpan()
    {
        // A span closing in a different session than it opened in is
        // dropped: its begin predates the new session's base (a pool
        // worker can sit in its task-wait span across a disable() /
        // enable() pair), and recording into a disabled profiler would
        // race the next enable().
        if (active && profilerEnabled() &&
            epoch == profGlobal().epoch.load(std::memory_order_acquire))
            detail::profRecord(phase, arg, begin,
                               std::chrono::steady_clock::now());
    }

  private:
    ProfPhase phase;
    int arg;
    std::uint64_t epoch = 0;
    std::chrono::steady_clock::time_point begin{};
    bool active = false;
};

/** Merged per-phase attribution for one phase. */
struct ProfPhaseStats
{
    ProfPhase phase = ProfPhase::NumPhases;
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0;
    std::uint64_t maxNs = 0;
};

/** A full profiling report: per-phase totals plus the span timeline. */
struct ProfReport
{
    /** Wall time from enable() to report(), nanoseconds. */
    std::uint64_t wallNs = 0;
    /** Distinct threads that recorded anything this session. */
    int threads = 0;
    /** Traced spans dropped to the per-thread cap. */
    std::uint64_t droppedSpans = 0;
    /** One entry per ProfPhase, in enum order (zero entries included). */
    std::vector<ProfPhaseStats> phases;
    /** All traced spans, merged and sorted by begin time. */
    std::vector<ProfSpanRecord> spans;
};

/**
 * Session control. All three calls require quiescence: no instrumented
 * code running on any thread. enable() starts a fresh session (prior
 * measurements are discarded lazily, per thread); report() merges every
 * thread's buffer; disable() stops recording but keeps the session's
 * data until the next enable().
 */
class Profiler
{
  public:
    static bool enabled() { return profilerEnabled(); }
    static void enable();
    static void disable();
    static ProfReport report();
};

/** Human-readable per-phase table (common/table.hh format). */
std::string profileTable(const ProfReport &report);

// ---------------------------------------------------------------------
// Instrumentation macro. Compiles to nothing with RM_PROFILER_DISABLED
// so the cycle loop can be proven untouched by construction.
// ---------------------------------------------------------------------

#define RM_PROF_CONCAT_IMPL(a, b) a##b
#define RM_PROF_CONCAT(a, b) RM_PROF_CONCAT_IMPL(a, b)

#if defined(RM_PROFILER_DISABLED)
#define RM_PROF_SCOPE(phase) static_cast<void>(0)
#define RM_PROF_SCOPE_ARG(phase, arg) static_cast<void>(0)
#else
#define RM_PROF_SCOPE(phase)                                              \
    const ::rm::ProfSpan RM_PROF_CONCAT(rm_prof_span_, __LINE__)(phase)
#define RM_PROF_SCOPE_ARG(phase, arg)                                     \
    const ::rm::ProfSpan RM_PROF_CONCAT(rm_prof_span_, __LINE__)((phase), \
                                                                 (arg))
#endif

} // namespace rm

#endif // RM_OBS_PROFILER_HH

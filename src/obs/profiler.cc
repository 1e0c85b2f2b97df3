#include "obs/profiler.hh"

#include <algorithm>
#include <array>

#include "common/errors.hh"
#include "common/table.hh"

namespace rm {

namespace {

constexpr std::array<const char *, kProfPhaseCount> kPhaseNames = {
    "sm.events",        // SmEvents
    "sm.mem_dispatch",  // SmMemDispatch
    "sm.wake",          // SmWake
    "sm.schedule",      // SmSchedule
    "sm.issue",         // SmIssue
    "sm.acqrel",        // SmAcqRel
    "sm.sanitize",      // SmSanitize
    "gpu.cell_build",   // GpuCellBuild
    "gpu.sm_run",       // GpuSmRun
    "gpu.merge",        // GpuMerge
    "pool.task_run",    // PoolTaskRun
    "pool.task_wait",   // PoolTaskWait
    "sweep.compile",    // SweepCompile
    "sweep.lint",       // SweepLint
    "sweep.sim",        // SweepSim
    "sweep.checkpoint", // SweepCheckpoint
};

} // namespace

const char *
profPhaseName(ProfPhase phase)
{
    const int index = static_cast<int>(phase);
    fatalIf(index < 0 || index >= kProfPhaseCount,
            "profPhaseName: phase out of range: ", index);
    return kPhaseNames[static_cast<std::size_t>(index)];
}

void
Profiler::enable()
{
    ProfGlobal &global = profGlobal();
    // New session: bump the epoch so every thread's buffer lazily
    // resets on its first record, then open the gate. Requires
    // quiescence (header contract), so no span is in flight here.
    global.epoch.fetch_add(1, std::memory_order_acq_rel);
    global.base = std::chrono::steady_clock::now();
    global.enabledAt = global.base;
    g_profEnabled.store(true, std::memory_order_release);
}

void
Profiler::disable()
{
    g_profEnabled.store(false, std::memory_order_release);
}

ProfReport
Profiler::report()
{
    ProfGlobal &global = profGlobal();
    ProfReport report;
    report.phases.resize(static_cast<std::size_t>(kProfPhaseCount));
    for (int p = 0; p < kProfPhaseCount; ++p)
        report.phases[static_cast<std::size_t>(p)].phase =
            static_cast<ProfPhase>(p);

    const std::uint64_t epoch =
        global.epoch.load(std::memory_order_acquire);
    report.wallNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - global.enabledAt)
            .count());

    std::lock_guard<std::mutex> lock(global.registryMutex);
    for (const auto &buffer : global.buffers) {
        if (buffer->sessionEpoch != epoch)
            continue; // recorded nothing this session
        bool contributed = buffer->droppedSpans > 0;
        for (int p = 0; p < kProfPhaseCount; ++p) {
            const auto index = static_cast<std::size_t>(p);
            ProfPhaseStats &out = report.phases[index];
            out.count += buffer->count[index];
            out.totalNs += buffer->totalNs[index];
            out.maxNs = std::max(out.maxNs, buffer->maxNs[index]);
            contributed = contributed || buffer->count[index] > 0;
        }
        report.spans.insert(report.spans.end(), buffer->spans.begin(),
                            buffer->spans.end());
        report.droppedSpans += buffer->droppedSpans;
        if (contributed)
            ++report.threads;
    }
    std::sort(report.spans.begin(), report.spans.end(),
              [](const ProfSpanRecord &a, const ProfSpanRecord &b) {
                  if (a.beginNs != b.beginNs)
                      return a.beginNs < b.beginNs;
                  if (a.thread != b.thread)
                      return a.thread < b.thread;
                  return a.endNs < b.endNs;
              });
    return report;
}

std::string
profileTable(const ProfReport &report)
{
    Table table({"phase", "count", "total_ms", "avg_us", "max_us",
                 "% wall"});
    for (const ProfPhaseStats &phase : report.phases) {
        if (phase.count == 0)
            continue;
        const double total_ms =
            static_cast<double>(phase.totalNs) / 1e6;
        const double avg_us = static_cast<double>(phase.totalNs) /
                              static_cast<double>(phase.count) / 1e3;
        const double max_us = static_cast<double>(phase.maxNs) / 1e3;
        const double frac =
            report.wallNs == 0
                ? 0.0
                : static_cast<double>(phase.totalNs) /
                      static_cast<double>(report.wallNs);
        Row row;
        row << profPhaseName(phase.phase) << phase.count
            << fixed(total_ms, 2) << fixed(avg_us, 2) << fixed(max_us, 2)
            << percent(frac);
        table.addRow(row.take());
    }
    std::string out = table.toText();
    out += "wall: " + fixed(static_cast<double>(report.wallNs) / 1e6, 2) +
           " ms over " + std::to_string(report.threads) + " thread(s)";
    if (report.droppedSpans > 0) {
        out += "; dropped spans: " + std::to_string(report.droppedSpans);
    }
    out +=
        "\nnote: totals are inclusive; sm.schedule contains sm.issue,\n"
        "which contains sm.acqrel, and pool.task_run contains whatever\n"
        "the task executed (e.g. gpu.sm_run). '% wall' can exceed 100%\n"
        "summed across phases and threads.\n";
    return out;
}

} // namespace rm

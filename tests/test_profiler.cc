/**
 * @file
 * rm-prof tests. The load-bearing property is non-interference: with
 * the profiler enabled, every policy must produce bit-identical
 * SimStats — representative and full-machine mode, serial and pooled —
 * because the profiler only reads clocks and writes its own buffers.
 * The rest pins the mechanics: span nesting and cross-thread merge
 * under parallelFor, session reset on enable(), and the Chrome-trace
 * and table exports.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "core/experiment.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "obs/profiler.hh"
#include "sim/stats.hh"
#include "workloads/suite.hh"

namespace rm {
namespace {

const char *const kAllPolicies[] = {"baseline", "regmutex", "paired",
                                    "owf", "rfv"};

/** Scope guard so a failing assertion cannot leak an enabled profiler
 *  into the remaining tests. */
struct ProfilerSession
{
    ProfilerSession() { Profiler::enable(); }
    ~ProfilerSession() { Profiler::disable(); }
    ProfilerSession(const ProfilerSession &) = delete;
    ProfilerSession &operator=(const ProfilerSession &) = delete;
};

SimStats
runOnce(const std::string &policy, const Program &program,
        const GpuConfig &config, GpuOptions::Mode mode, int threads)
{
    RunOptions options;
    options.gpu.mode = mode;
    options.gpu.threads = threads;
    return runPolicy(policy, program, config, options).stats();
}

// --- Non-interference: profiling must not change results -------------

TEST(ProfilerIsolation, RepresentativeStatsBitIdenticalAllPolicies)
{
    const Program p = buildWorkload("BFS");
    const GpuConfig config = gtx480Config();
    for (const char *policy : kAllPolicies) {
        ASSERT_FALSE(Profiler::enabled());
        const SimStats off = runOnce(policy, p, config,
                                     GpuOptions::Mode::Representative, 1);
        SimStats on;
        {
            ProfilerSession session;
            on = runOnce(policy, p, config,
                         GpuOptions::Mode::Representative, 1);
        }
        EXPECT_TRUE(off == on) << policy;
    }
}

TEST(ProfilerIsolation, FullMachineStatsBitIdenticalAcrossThreads)
{
    Program p = buildWorkload("BFS");
    p.info.gridCtas = 8;
    GpuConfig config = gtx480Config();
    config.numSms = 4;
    for (const char *policy : kAllPolicies) {
        ASSERT_FALSE(Profiler::enabled());
        const SimStats off = runOnce(policy, p, config,
                                     GpuOptions::Mode::FullMachine, 1);
        SimStats on_serial;
        SimStats on_pooled;
        {
            ProfilerSession session;
            on_serial = runOnce(policy, p, config,
                                GpuOptions::Mode::FullMachine, 1);
            on_pooled = runOnce(policy, p, config,
                                GpuOptions::Mode::FullMachine, 8);
        }
        EXPECT_TRUE(off == on_serial) << policy << " threads=1";
        EXPECT_TRUE(off == on_pooled) << policy << " threads=8";
    }
}

TEST(ProfilerIsolation, ProfiledRunActuallyRecordsPhases)
{
    // The isolation tests above would pass vacuously if the spans never
    // fired; pin that an enabled run attributes real simulator work.
    const Program p = buildWorkload("BFS");
    ProfReport report;
    {
        ProfilerSession session;
        runOnce("regmutex", p, gtx480Config(),
                GpuOptions::Mode::Representative, 1);
        report = Profiler::report();
    }
    ASSERT_EQ(report.phases.size(),
              static_cast<std::size_t>(kProfPhaseCount));
    const auto &sched = report.phases[static_cast<std::size_t>(
        ProfPhase::SmSchedule)];
    const auto &issue = report.phases[static_cast<std::size_t>(
        ProfPhase::SmIssue)];
    const auto &smrun = report.phases[static_cast<std::size_t>(
        ProfPhase::GpuSmRun)];
    EXPECT_GT(sched.count, 0u);
    EXPECT_GT(issue.count, 0u);
    EXPECT_EQ(smrun.count, 1u); // one representative SM
    // Inclusive nesting: schedule contains issue.
    EXPECT_GE(sched.totalNs, issue.totalNs);
    EXPECT_GT(report.wallNs, 0u);
    EXPECT_GE(report.threads, 1);
}

// --- Span recording, nesting and merge -------------------------------

TEST(ProfilerSpans, NestedSpansMergeCorrectlyUnderParallelFor)
{
    constexpr int kIters = 16;
    ProfReport report;
    {
        ProfilerSession session;
        parallelFor(
            kIters,
            [](int i) {
                RM_PROF_SCOPE_ARG(ProfPhase::GpuSmRun, i);
                RM_PROF_SCOPE_ARG(ProfPhase::GpuMerge, i);
            },
            0);
        report = Profiler::report();
    }

    const auto &outer = report.phases[static_cast<std::size_t>(
        ProfPhase::GpuSmRun)];
    const auto &inner = report.phases[static_cast<std::size_t>(
        ProfPhase::GpuMerge)];
    EXPECT_EQ(outer.count, static_cast<std::uint64_t>(kIters));
    EXPECT_EQ(inner.count, static_cast<std::uint64_t>(kIters));
    // Totals are inclusive: every inner span lies inside an outer one.
    EXPECT_GE(outer.totalNs, inner.totalNs);
    EXPECT_GE(outer.maxNs, outer.totalNs / kIters);
    EXPECT_EQ(report.droppedSpans, 0u);
    EXPECT_GE(report.threads, 1);

    // The merged timeline is sorted by begin time and contains each
    // iteration's pair (plus any PoolTask* spans from the workers).
    std::vector<ProfSpanRecord> outer_spans;
    std::vector<ProfSpanRecord> inner_spans;
    for (std::size_t i = 1; i < report.spans.size(); ++i)
        EXPECT_LE(report.spans[i - 1].beginNs, report.spans[i].beginNs);
    for (const ProfSpanRecord &span : report.spans) {
        if (span.phase == static_cast<std::int32_t>(ProfPhase::GpuSmRun))
            outer_spans.push_back(span);
        if (span.phase == static_cast<std::int32_t>(ProfPhase::GpuMerge))
            inner_spans.push_back(span);
    }
    ASSERT_EQ(outer_spans.size(), static_cast<std::size_t>(kIters));
    ASSERT_EQ(inner_spans.size(), static_cast<std::size_t>(kIters));
    // Each inner span nests inside the outer span of the same
    // iteration (same arg, same thread).
    for (const ProfSpanRecord &in : inner_spans) {
        bool contained = false;
        for (const ProfSpanRecord &out : outer_spans) {
            if (out.arg == in.arg && out.thread == in.thread &&
                out.beginNs <= in.beginNs && out.endNs >= in.endNs) {
                contained = true;
                break;
            }
        }
        EXPECT_TRUE(contained) << "iteration " << in.arg;
    }
}

TEST(ProfilerSpans, EnableStartsAFreshSession)
{
    {
        ProfilerSession session;
        for (int i = 0; i < 3; ++i)
            RM_PROF_SCOPE_ARG(ProfPhase::GpuMerge, i);
        const ProfReport first = Profiler::report();
        EXPECT_EQ(first.phases[static_cast<std::size_t>(
                                   ProfPhase::GpuMerge)]
                      .count,
                  3u);
    }
    {
        ProfilerSession session;
        { RM_PROF_SCOPE(ProfPhase::GpuMerge); }
        const ProfReport second = Profiler::report();
        EXPECT_EQ(second.phases[static_cast<std::size_t>(
                                    ProfPhase::GpuMerge)]
                      .count,
                  1u);
        EXPECT_EQ(second.spans.size(), 1u);
    }
}

TEST(ProfilerSpans, DisabledProfilerRecordsNothing)
{
    ASSERT_FALSE(Profiler::enabled());
    { RM_PROF_SCOPE(ProfPhase::GpuMerge); }
    ProfReport report;
    {
        ProfilerSession session;
        report = Profiler::report();
    }
    EXPECT_EQ(report.phases[static_cast<std::size_t>(ProfPhase::GpuMerge)]
                  .count,
              0u);
    EXPECT_TRUE(report.spans.empty());
}

// --- Exports ---------------------------------------------------------

/** A report with every field populated, for export checks. */
ProfReport
sampleReport()
{
    ProfReport report;
    report.wallNs = 5'000'000;
    report.threads = 2;
    report.droppedSpans = 1;
    report.phases.resize(static_cast<std::size_t>(kProfPhaseCount));
    for (int p = 0; p < kProfPhaseCount; ++p)
        report.phases[static_cast<std::size_t>(p)].phase =
            static_cast<ProfPhase>(p);
    auto &sched = report.phases[static_cast<std::size_t>(
        ProfPhase::SmSchedule)];
    sched.count = 1000;
    sched.totalNs = 4'000'000;
    sched.maxNs = 9000;
    auto &smrun = report.phases[static_cast<std::size_t>(
        ProfPhase::GpuSmRun)];
    smrun.count = 2;
    smrun.totalNs = 4'500'000;
    smrun.maxNs = 2'300'000;
    report.spans.push_back(ProfSpanRecord{
        static_cast<std::int32_t>(ProfPhase::GpuSmRun), 0, 0, 100,
        2'300'100});
    report.spans.push_back(ProfSpanRecord{
        static_cast<std::int32_t>(ProfPhase::GpuSmRun), 1, 1, 200,
        2'200'200});
    return report;
}

TEST(ProfileExport, ChromeTraceCarriesSpansAndMetadata)
{
    const JsonValue doc =
        parseJson(profileChromeTrace(sampleReport()));
    const JsonValue &events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    int slices = 0;
    int metadata = 0;
    bool saw_arg_name = false;
    for (const JsonValue &event : events.items) {
        const std::string ph = event.at("ph").string;
        if (ph == "X") {
            ++slices;
            if (event.at("name").string == "gpu.sm_run #1")
                saw_arg_name = true;
            EXPECT_GE(event.at("dur").number, 0.0);
        } else if (ph == "M") {
            ++metadata;
        }
    }
    EXPECT_EQ(slices, 2);
    EXPECT_GE(metadata, 3); // process name + two thread names
    EXPECT_TRUE(saw_arg_name);
    EXPECT_EQ(doc.at("otherData").at("threads").number, 2.0);
}

TEST(ProfileExport, TableListsActivePhasesOnly)
{
    const std::string table = profileTable(sampleReport());
    EXPECT_NE(table.find("sm.schedule"), std::string::npos);
    EXPECT_NE(table.find("gpu.sm_run"), std::string::npos);
    // Zero-count phases stay out of the table.
    EXPECT_EQ(table.find("sweep.lint"), std::string::npos);
}

} // namespace
} // namespace rm

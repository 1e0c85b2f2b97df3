/**
 * @file
 * Issue-trace tests: ring-buffer semantics, event kinds, and the
 * acquire/release choreography recorded on a real RegMutex run.
 */

#include <gtest/gtest.h>

#include "common/errors.hh"
#include "core/experiment.hh"
#include "sim/trace.hh"
#include "workloads/suite.hh"

namespace rm {
namespace {

TEST(IssueTrace, RingEvictsOldest)
{
    IssueTrace trace(4);
    for (int i = 0; i < 10; ++i)
        trace.record(TraceEvent{static_cast<std::uint64_t>(i), i, 0, i,
                                TraceKind::Issue});
    EXPECT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace.totalRecorded(), 10u);
    const auto events = trace.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().cycle, 6u);
    EXPECT_EQ(events.back().cycle, 9u);
}

TEST(IssueTrace, PartialFillKeepsOrder)
{
    IssueTrace trace(8);
    for (int i = 0; i < 3; ++i)
        trace.record(TraceEvent{static_cast<std::uint64_t>(i), i, 0, i,
                                TraceKind::Issue});
    const auto events = trace.events();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].cycle, 0u);
    EXPECT_EQ(events[2].cycle, 2u);
}

TEST(IssueTrace, ZeroCapacityRejected)
{
    EXPECT_THROW(IssueTrace(0), FatalError);
}

TEST(IssueTrace, KindNames)
{
    EXPECT_STREQ(IssueTrace::kindName(TraceKind::AcquireOk), "acquire");
    EXPECT_STREQ(IssueTrace::kindName(TraceKind::CtaRetire),
                 "cta-retire");
}

class TracedRun : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        config = gtx480Config();
        RunOptions options;
        options.gpu.obs.trace = &trace;
        runPolicy("regmutex", buildWorkload("BFS"), config, options);
    }

    GpuConfig config;
    IssueTrace trace{1 << 20};
};

TEST_F(TracedRun, RecordsTheRunsStructure)
{
    int launches = 0, retires = 0, exits = 0;
    int acquires = 0, releases = 0;
    for (const auto &event : trace.events()) {
        switch (event.kind) {
          case TraceKind::CtaLaunch: ++launches; break;
          case TraceKind::CtaRetire: ++retires; break;
          case TraceKind::WarpExit: ++exits; break;
          case TraceKind::AcquireOk: ++acquires; break;
          case TraceKind::Release: ++releases; break;
          default: break;
        }
    }
    EXPECT_EQ(launches, 9);   // BFS: 9 CTAs per SM share
    EXPECT_EQ(retires, 9);
    EXPECT_EQ(exits, 9 * 16); // 16 warps per CTA
    EXPECT_GT(acquires, 0);
    EXPECT_EQ(acquires, releases);  // BFS never exits while holding
}

TEST_F(TracedRun, EveryAcquirePrecedesItsWarpsRelease)
{
    // Per warp slot, acquire/release events must alternate.
    std::vector<int> held(config.maxWarpsPerSm, 0);
    for (const auto &event : trace.events()) {
        if (event.kind == TraceKind::AcquireOk) {
            EXPECT_EQ(held[event.warpSlot], 0)
                << "double acquire at cycle " << event.cycle;
            held[event.warpSlot] = 1;
        } else if (event.kind == TraceKind::Release) {
            EXPECT_EQ(held[event.warpSlot], 1)
                << "release without acquire at cycle " << event.cycle;
            held[event.warpSlot] = 0;
        }
    }
}

TEST_F(TracedRun, EventsAreChronological)
{
    std::uint64_t last = 0;
    for (const auto &event : trace.events()) {
        EXPECT_GE(event.cycle, last);
        last = event.cycle;
    }
}

} // namespace
} // namespace rm

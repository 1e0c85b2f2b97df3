/**
 * @file
 * End-to-end integration: every suite workload under every allocation
 * policy runs to completion on the timing simulator, and the paper's
 * headline relations hold — RegMutex raises occupancy and reduces
 * cycles for register-limited kernels (Fig. 7), cushions the halved
 * register file (Fig. 8), and the acquire bookkeeping is consistent.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "workloads/suite.hh"

namespace rm {
namespace {

class OccupancyLimited : public ::testing::TestWithParam<std::string>
{};

TEST_P(OccupancyLimited, RegMutexCompletesAndRaisesOccupancy)
{
    const Program p = buildWorkload(GetParam());
    const GpuConfig config = gtx480Config();

    const SimStats base = runPolicy("baseline", p, config).stats();
    const PolicyRun rmx = runPolicy("regmutex", p, config);

    EXPECT_FALSE(base.deadlocked);
    EXPECT_FALSE(rmx.stats().deadlocked);
    EXPECT_EQ(base.ctasCompleted, rmx.stats().ctasCompleted);
    EXPECT_GT(rmx.stats().theoreticalOccupancy,
              base.theoreticalOccupancy);

    // Acquire bookkeeping: successes never exceed attempts; every
    // successful acquire is eventually released (at a release
    // directive or warp exit).
    EXPECT_LE(rmx.stats().acquireSuccesses, rmx.stats().acquireAttempts);
    EXPECT_GT(rmx.stats().acquireAttempts, 0u);
    EXPECT_GT(rmx.stats().releases, 0u);
    EXPECT_GT(rmx.stats().extRegAccesses, 0u);
}

TEST_P(OccupancyLimited, AllPoliciesAgreeOnWorkDone)
{
    const Program p = buildWorkload(GetParam());
    const GpuConfig config = gtx480Config();

    const SimStats base = runPolicy("baseline", p, config).stats();
    const SimStats owf = runPolicy("owf", p, config).stats();
    const SimStats rfv = runPolicy("rfv", p, config).stats();
    const PolicyRun paired = runPolicy("paired", p, config);

    EXPECT_FALSE(owf.deadlocked);
    EXPECT_FALSE(rfv.deadlocked);
    EXPECT_FALSE(paired.stats().deadlocked);
    EXPECT_EQ(owf.ctasCompleted, base.ctasCompleted);
    EXPECT_EQ(rfv.ctasCompleted, base.ctasCompleted);
    EXPECT_EQ(paired.stats().ctasCompleted, base.ctasCompleted);
}

INSTANTIATE_TEST_SUITE_P(
    Fig7Set, OccupancyLimited,
    ::testing::ValuesIn(occupancyLimitedSet()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (auto &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

class HalfRfWorkload : public ::testing::TestWithParam<std::string>
{};

TEST_P(HalfRfWorkload, RegMutexCushionsTheSmallRegisterFile)
{
    const Program p = buildWorkload(GetParam());
    const GpuConfig full = gtx480Config();
    const GpuConfig half = halfRegisterFile(full);

    const SimStats base_full = runPolicy("baseline", p, full).stats();
    const SimStats base_half = runPolicy("baseline", p, half).stats();
    const PolicyRun rmx_half = runPolicy("regmutex", p, half);

    EXPECT_FALSE(base_half.deadlocked);
    EXPECT_FALSE(rmx_half.stats().deadlocked);
    // Halving the register file cannot help the baseline.
    EXPECT_GE(base_half.cycles, base_full.cycles);
    // RegMutex recovers occupancy lost to the smaller file.
    EXPECT_GE(rmx_half.stats().theoreticalOccupancy,
              base_half.theoreticalOccupancy);
}

INSTANTIATE_TEST_SUITE_P(
    Fig8Set, HalfRfWorkload, ::testing::ValuesIn(halfRfSet()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (auto &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(IntegrationAverages, Fig7RegMutexReducesCyclesOnAverage)
{
    double total_reduction = 0.0;
    double best = 0.0;
    for (const auto &name : occupancyLimitedSet()) {
        const Program p = buildWorkload(name);
        const SimStats base = runPolicy("baseline", p, gtx480Config()).stats();
        const PolicyRun rmx = runPolicy("regmutex", p, gtx480Config());
        const double reduction = cycleReduction(base, rmx.stats());
        total_reduction += reduction;
        best = std::max(best, reduction);
    }
    const double average = total_reduction / 8.0;
    // Paper: average 13%, best 23%. The shape must hold: a clearly
    // positive average with a substantially better best case.
    EXPECT_GT(average, 0.04);
    EXPECT_GT(best, average);
    EXPECT_GT(best, 0.10);
}

TEST(IntegrationAverages, Fig8RegMutexSoftensHalfRfOnAverage)
{
    const GpuConfig full = gtx480Config();
    const GpuConfig half = halfRegisterFile(full);
    double base_increase = 0.0;
    double rmx_increase = 0.0;
    for (const auto &name : halfRfSet()) {
        const Program p = buildWorkload(name);
        const SimStats base_full = runPolicy("baseline", p, full).stats();
        const SimStats base_half = runPolicy("baseline", p, half).stats();
        const PolicyRun rmx_half = runPolicy("regmutex", p, half);
        base_increase += -cycleReduction(base_full, base_half);
        rmx_increase += -cycleReduction(base_full, rmx_half.stats());
    }
    base_increase /= 8.0;
    rmx_increase /= 8.0;
    // Paper: 23% vs 9% average increase. Shape: both positive, and
    // RegMutex clearly softer than the unaided half-file baseline.
    EXPECT_GT(base_increase, 0.05);
    EXPECT_LT(rmx_increase, base_increase * 0.75);
}

TEST(IntegrationAverages, Fig9aOrderingHolds)
{
    // Paper Fig. 9a: OWF << {RFV, RegMutex}; RFV and RegMutex close,
    // RFV slightly ahead.
    const GpuConfig config = gtx480Config();
    double owf_total = 0.0, rfv_total = 0.0, rmx_total = 0.0;
    for (const auto &name : occupancyLimitedSet()) {
        const Program p = buildWorkload(name);
        const SimStats base = runPolicy("baseline", p, config).stats();
        owf_total += cycleReduction(base, runPolicy("owf", p, config).stats());
        rfv_total += cycleReduction(base, runPolicy("rfv", p, config).stats());
        rmx_total +=
            cycleReduction(base, runPolicy("regmutex", p, config).stats());
    }
    const double owf = owf_total / 8.0;
    const double rfv = rfv_total / 8.0;
    const double rmx = rmx_total / 8.0;
    EXPECT_GT(rmx, owf);
    EXPECT_GT(rfv, owf);
    EXPECT_GT(rmx, 0.04);
}

TEST(Integration, PollRetryAblationStillCompletes)
{
    GpuConfig config = gtx480Config();
    config.wakeOnRelease = false;
    const Program p = buildWorkload("BFS");
    const PolicyRun rmx = runPolicy("regmutex", p, config);
    EXPECT_FALSE(rmx.stats().deadlocked);
    // Polling can only burn more failed acquire attempts than
    // wake-on-release does.
    GpuConfig wake = gtx480Config();
    const PolicyRun rmx_wake = runPolicy("regmutex", p, wake);
    EXPECT_LE(rmx_wake.stats().acquireSuccessRate(), 1.0);
    EXPECT_GE(rmx_wake.stats().acquireSuccessRate(),
              rmx.stats().acquireSuccessRate());
}

TEST(Integration, LrrSchedulerAblationCompletes)
{
    GpuConfig config = gtx480Config();
    config.schedPolicy = SchedPolicy::Lrr;
    const Program p = buildWorkload("SAD");
    const SimStats base = runPolicy("baseline", p, config).stats();
    const PolicyRun rmx = runPolicy("regmutex", p, config);
    EXPECT_FALSE(base.deadlocked);
    EXPECT_FALSE(rmx.stats().deadlocked);
}

} // namespace
} // namespace rm

/**
 * @file
 * Statistics-invariant matrix: every (workload x policy x architecture)
 * combination must satisfy the accounting identities the figures rely
 * on — issued slots equal executed instructions, scheduler slots are
 * conserved, occupancy bounds hold, acquire/release bookkeeping
 * balances, and relative results are reproducible run to run.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/errors.hh"
#include "core/experiment.hh"
#include "sim/gpu.hh"
#include "workloads/suite.hh"

namespace rm {
namespace {

using Combo = std::tuple<std::string, std::string, bool>;

class StatsInvariants : public ::testing::TestWithParam<Combo>
{
  protected:
    SimStats
    run() const
    {
        const auto &[name, policy, half] = GetParam();
        const GpuConfig config =
            half ? halfRegisterFile(gtx480Config()) : gtx480Config();
        const Program p = buildWorkload(name);
        if (policy == "baseline")
            return runPolicy("baseline", p, config).stats();
        if (policy == "regmutex")
            return runPolicy("regmutex", p, config).stats();
        if (policy == "paired")
            return runPolicy("paired", p, config).stats();
        if (policy == "owf")
            return runPolicy("owf", p, config).stats();
        return runPolicy("rfv", p, config).stats();
    }

    GpuConfig
    config() const
    {
        return std::get<2>(GetParam())
                   ? halfRegisterFile(gtx480Config())
                   : gtx480Config();
    }
};

TEST_P(StatsInvariants, AccountingIdentitiesHold)
{
    SimStats stats;
    try {
        stats = run();
    } catch (const FatalError &e) {
        // e.g. DWT2D's 44-register CTAs cannot fit the halved file
        // under exclusive allocation at all.
        GTEST_SKIP() << e.what();
    }
    ASSERT_FALSE(stats.deadlocked);

    // Every CTA of this SM's share completed.
    const Program p = buildWorkload(std::get<0>(GetParam()));
    EXPECT_EQ(stats.ctasCompleted,
              static_cast<std::uint64_t>(
                  ctasPerSmShare(config(), p)));

    // Issue slots: every instruction occupies exactly one.
    EXPECT_EQ(stats.instructions, stats.issuedSlots);
    // A scheduler slot is either used or idle.
    EXPECT_LE(stats.issuedSlots + stats.idleSchedulerSlots,
              stats.cycles * config().numSchedulers +
                  config().numSchedulers);

    // Occupancy bounds.
    EXPECT_GT(stats.theoreticalWarps, 0);
    EXPECT_LE(stats.theoreticalWarps, config().maxWarpsPerSm);
    EXPECT_LE(stats.avgResidentWarps,
              static_cast<double>(stats.theoreticalWarps) + 1e-9);
    EXPECT_GE(stats.avgResidentWarps, 0.0);

    // Acquire bookkeeping.
    EXPECT_LE(stats.acquireSuccesses, stats.acquireAttempts);
    // Every successful acquire is released (directive or warp exit);
    // a release without a prior success never counts.
    EXPECT_LE(stats.releases, stats.acquireSuccesses);
    EXPECT_GE(stats.acquireSuccessRate(), 0.0);
    EXPECT_LE(stats.acquireSuccessRate(), 1.0);

    // IPC cannot exceed the scheduler width.
    EXPECT_LE(stats.ipc(),
              static_cast<double>(config().numSchedulers) + 1e-9);
}

TEST_P(StatsInvariants, RunToRunDeterminism)
{
    SimStats a, b;
    try {
        a = run();
        b = run();
    } catch (const FatalError &e) {
        GTEST_SKIP() << e.what();
    }
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.acquireAttempts, b.acquireAttempts);
    EXPECT_EQ(a.emergencySpills, b.emergencySpills);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, StatsInvariants,
    ::testing::Combine(
        ::testing::Values("BFS", "DWT2D", "SAD", "SPMV", "HeartWall",
                          "Gaussian"),
        ::testing::Values("baseline", "regmutex", "paired", "owf",
                          "rfv"),
        ::testing::Bool()),
    [](const ::testing::TestParamInfo<Combo> &info) {
        std::string name = std::get<0>(info.param) + "_" +
                           std::get<1>(info.param) +
                           (std::get<2>(info.param) ? "_half" : "_full");
        for (auto &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace rm

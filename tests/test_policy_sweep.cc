/**
 * @file
 * The policy registry and the parallel sweep runner: lookups fail
 * loudly with the known names, a custom policy runs by spec,
 * sweepGrid() ordering is deterministic, and runSweep() results do not
 * depend on the sweep thread count.
 */

#include <gtest/gtest.h>

#include "common/errors.hh"
#include "core/experiment.hh"
#include "core/policy.hh"
#include "core/sweep.hh"
#include "workloads/suite.hh"

namespace rm {
namespace {

TEST(PolicyRegistry, BuiltinsAreRegistered)
{
    const PolicyRegistry &registry = PolicyRegistry::instance();
    for (const char *name :
         {"baseline", "regmutex", "paired", "owf", "rfv"}) {
        const PolicySpec *spec = registry.find(name);
        ASSERT_NE(spec, nullptr) << name;
        EXPECT_EQ(spec->name, name);
        EXPECT_FALSE(spec->summary.empty());
        EXPECT_TRUE(spec->compile != nullptr);
        EXPECT_TRUE(spec->allocator != nullptr);
    }
    EXPECT_EQ(registry.names(),
              (std::vector<std::string>{"baseline", "owf", "paired",
                                        "regmutex", "rfv"}));
}

TEST(PolicyRegistry, UnknownPolicyFailsLoudly)
{
    EXPECT_EQ(PolicyRegistry::instance().find("no-such-policy"), nullptr);
    try {
        PolicyRegistry::instance().at("no-such-policy");
        FAIL() << "at() must throw for unknown policies";
    } catch (const FatalError &e) {
        // The error names the known policies so typos are self-serve.
        EXPECT_NE(std::string(e.what()).find("regmutex"),
                  std::string::npos);
    }
}

TEST(PolicyRegistry, CustomPolicyRunsBySpec)
{
    Program p = buildWorkload("BFS");
    p.info.gridCtas = 8;
    GpuConfig config = gtx480Config();
    config.numSms = 4;
    RunOptions options;
    options.gpu.mode = GpuOptions::Mode::FullMachine;
    const PolicyRun run =
        runPolicy(makeRfvPolicy(0.4, "rfv-0.4"), p, config, options);
    EXPECT_FALSE(run.stats().deadlocked);
    EXPECT_EQ(run.stats().ctasCompleted, 8u);
    EXPECT_EQ(PolicyRegistry::instance().find("rfv-0.4"), nullptr);
}

TEST(Sweep, GridOrderingIsConfigOuterWorkloadThenPolicy)
{
    const GpuConfig full = gtx480Config();
    const GpuConfig half = halfRegisterFile(full);
    const std::vector<std::string> workloads = {"BFS", "SAD"};
    const std::vector<std::string> policies = {"baseline", "regmutex"};
    const std::vector<SweepCase> grid = sweepGrid(
        workloads, policies, {{"GTX480", full}, {"half-RF", half}});

    ASSERT_EQ(grid.size(), 8u);
    const std::size_t W = workloads.size(), P = policies.size();
    for (std::size_t c = 0; c < 2; ++c) {
        for (std::size_t w = 0; w < W; ++w) {
            for (std::size_t p = 0; p < P; ++p) {
                const SweepCase &cell = grid[(c * W + w) * P + p];
                EXPECT_EQ(cell.workload, workloads[w]);
                EXPECT_EQ(cell.policy, policies[p]);
                EXPECT_EQ(cell.arch, c == 0 ? "GTX480" : "half-RF");
            }
        }
    }
    EXPECT_EQ(grid.back().config.registersPerSm, half.registersPerSm);
}

TEST(Sweep, ResultsIndependentOfSweepThreadCount)
{
    const std::vector<SweepCase> grid = sweepGrid(
        {"BFS"}, {"baseline", "regmutex"}, {{"GTX480", gtx480Config()}});

    SweepOptions serial;
    serial.threads = 1;
    SweepOptions pooled;
    pooled.threads = 0;
    const std::vector<SweepResult> a = runSweep(grid, serial);
    const std::vector<SweepResult> b = runSweep(grid, pooled);

    ASSERT_EQ(a.size(), grid.size());
    ASSERT_EQ(b.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(a[i].spec.policy, grid[i].policy);
        EXPECT_EQ(a[i].stats().cycles, b[i].stats().cycles);
        EXPECT_EQ(a[i].stats().instructions, b[i].stats().instructions);
        EXPECT_EQ(a[i].stats().ctasCompleted, b[i].stats().ctasCompleted);
        EXPECT_EQ(a[i].stats().avgResidentWarps,
                  b[i].stats().avgResidentWarps);
    }
    // The regmutex cell carries its compile metadata with it.
    ASSERT_TRUE(a[1].compile.compile.has_value());
    EXPECT_EQ(a[1].compile.compile->selection.bs,
              b[1].compile.compile->selection.bs);
}

TEST(Sweep, UnknownPolicyIsIsolatedAsCompileFailure)
{
    // Failures are isolated per cell rather than thrown: an unknown
    // policy marks its cell CompileFailed (naming the known policies
    // in the error) without simulating it. See docs/ROBUSTNESS.md.
    std::vector<SweepCase> grid(1);
    grid[0].workload = "BFS";
    grid[0].policy = "no-such-policy";
    const std::vector<SweepResult> results = runSweep(grid);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, SweepStatus::CompileFailed);
    EXPECT_NE(results[0].error.find("no-such-policy"), std::string::npos);
    EXPECT_TRUE(results[0].run.perSm.empty());
}

} // namespace
} // namespace rm

/**
 * @file
 * Randomized property tests. A seeded generator produces kernel
 * specifications with random phase structure (peaks, loops, barriers,
 * divergence, scrambled register layouts); for every specimen the
 * compiler pipeline must produce a validated program that is
 * functionally equivalent to the input, and the simulator must run
 * every policy to completion with consistent statistics.
 */

#include <gtest/gtest.h>

#include "analysis/cfg.hh"
#include "analysis/liveness.hh"
#include "common/errors.hh"
#include "common/rng.hh"
#include "compiler/pipeline.hh"
#include "compiler/validator.hh"
#include "core/experiment.hh"
#include "sim/interpreter.hh"
#include "workloads/generator.hh"

#include "spec_helpers.hh"

namespace rm {
namespace {

class RandomKernel : public ::testing::TestWithParam<int>
{
  protected:
    KernelSpec spec = test::randomSpec(GetParam());
};

TEST_P(RandomKernel, GeneratorRespectsItsContract)
{
    const Program p = buildKernel(spec);
    p.verify();
    EXPECT_EQ(p.info.numRegs, spec.regs);
    const Liveness live = Liveness::compute(p, Cfg::build(p));
    EXPECT_EQ(live.maxLiveCount(), spec.regs);
}

TEST_P(RandomKernel, CompilerPreservesSemantics)
{
    const Program p = buildKernel(spec);
    const GpuConfig config = gtx480Config();

    CompileResult compiled;
    try {
        compiled = compileRegMutex(p, config);
    } catch (const FatalError &) {
        // A random spec may pin too many registers at a barrier for
        // any candidate; rejecting is the correct behaviour.
        return;
    }
    if (!compiled.enabled())
        return;

    const ValidationReport report = validateRegMutex(compiled.program);
    ASSERT_TRUE(report.ok) << report.error;

    const InterpResult a = interpret(p);
    const InterpResult b = interpret(compiled.program);
    EXPECT_EQ(a.memDigest, b.memDigest);
    EXPECT_EQ(a.storeDigest, b.storeDigest);
}

TEST_P(RandomKernel, CompilerPreservesSemanticsOnHalfFile)
{
    const Program p = buildKernel(spec);
    const GpuConfig config = halfRegisterFile(gtx480Config());

    CompileResult compiled;
    try {
        compiled = compileRegMutex(p, config);
    } catch (const FatalError &) {
        return;
    }
    if (!compiled.enabled())
        return;
    ASSERT_TRUE(validateRegMutex(compiled.program).ok);
    EXPECT_EQ(interpret(p).memDigest,
              interpret(compiled.program).memDigest);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomKernel, ::testing::Range(1, 33));

/** Heavier sweep: run the timing simulator under every policy. */
class RandomKernelSim : public ::testing::TestWithParam<int>
{
  protected:
    KernelSpec spec = test::randomSpec(GetParam() * 101 + 7);
};

TEST_P(RandomKernelSim, AllPoliciesCompleteConsistently)
{
    const Program p = buildKernel(spec);
    const GpuConfig config = gtx480Config();

    const SimStats base = runPolicy("baseline", p, config).stats();
    EXPECT_FALSE(base.deadlocked);
    const std::uint64_t ctas = base.ctasCompleted;
    EXPECT_GT(ctas, 0u);

    try {
        const PolicyRun rmx = runPolicy("regmutex", p, config);
        EXPECT_FALSE(rmx.stats().deadlocked);
        EXPECT_EQ(rmx.stats().ctasCompleted, ctas);
        EXPECT_LE(rmx.stats().acquireSuccesses,
                  rmx.stats().acquireAttempts);

        const PolicyRun paired = runPolicy("paired", p, config);
        EXPECT_FALSE(paired.stats().deadlocked);
        EXPECT_EQ(paired.stats().ctasCompleted, ctas);

        const SimStats owf = runPolicy("owf", p, config).stats();
        EXPECT_FALSE(owf.deadlocked);
        EXPECT_EQ(owf.ctasCompleted, ctas);
    } catch (const FatalError &) {
        // No viable compile for this spec: baseline-only is fine.
    }

    const SimStats rfv = runPolicy("rfv", p, config).stats();
    EXPECT_FALSE(rfv.deadlocked);
    EXPECT_EQ(rfv.ctasCompleted, ctas);
}

TEST_P(RandomKernelSim, SimulationIsDeterministic)
{
    const Program p = buildKernel(spec);
    const GpuConfig config = gtx480Config();
    const SimStats a = runPolicy("baseline", p, config).stats();
    const SimStats b = runPolicy("baseline", p, config).stats();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.scoreboardStalls, b.scoreboardStalls);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomKernelSim,
                         ::testing::Range(1, 9));

} // namespace
} // namespace rm

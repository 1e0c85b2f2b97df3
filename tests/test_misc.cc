/**
 * @file
 * Coverage for remaining corners: grid sharing across SMs, the
 * cycleReduction helper, stats accessors, bank-conflict modeling,
 * interpreter trace capping, and the stripped/compiled program
 * relationships the built-in policies rely on.
 */

#include <gtest/gtest.h>

#include "common/errors.hh"
#include "compiler/edit.hh"
#include "compiler/pipeline.hh"
#include "core/experiment.hh"
#include "isa/builder.hh"
#include "sim/gpu.hh"
#include "sim/interpreter.hh"
#include "workloads/suite.hh"

namespace rm {
namespace {

TEST(Gpu, GridShareRoundsUp)
{
    GpuConfig config = gtx480Config();
    Program p = buildWorkload("BFS");
    p.info.gridCtas = 31;
    EXPECT_EQ(ctasPerSmShare(config, p), 3);  // ceil(31/15)
    p.info.gridCtas = 30;
    EXPECT_EQ(ctasPerSmShare(config, p), 2);
    config.numSms = 1;
    EXPECT_EQ(ctasPerSmShare(config, p), 30);
}

TEST(Stats, CycleReductionSigns)
{
    SimStats base, technique;
    base.cycles = 1000;
    technique.cycles = 870;
    EXPECT_NEAR(cycleReduction(base, technique), 0.13, 1e-12);
    technique.cycles = 1100;
    EXPECT_NEAR(cycleReduction(base, technique), -0.10, 1e-12);
    base.cycles = 0;
    EXPECT_THROW(cycleReduction(base, technique), FatalError);
}

TEST(Stats, AccessorsBehave)
{
    SimStats stats;
    EXPECT_DOUBLE_EQ(stats.ipc(), 0.0);
    EXPECT_DOUBLE_EQ(stats.acquireSuccessRate(), 1.0);  // no attempts
    stats.cycles = 100;
    stats.instructions = 150;
    EXPECT_DOUBLE_EQ(stats.ipc(), 1.5);
    stats.acquireAttempts = 4;
    stats.acquireSuccesses = 3;
    EXPECT_DOUBLE_EQ(stats.acquireSuccessRate(), 0.75);
}

TEST(BankConflicts, CountedWhenEnabled)
{
    GpuConfig config = gtx480Config();
    config.modelBankConflicts = true;

    // Two sources in the same bank: physical packs r0 and r4 with
    // 4 banks collide for warp 0 under the baseline mapping.
    KernelInfo info;
    info.numRegs = 8;
    info.ctaThreads = 32;
    info.gridCtas = 15;
    ProgramBuilder b(info);
    b.movImm(0, 1);
    b.movImm(4, 2);
    // Independent adds (six rotating destinations) whose sources r0
    // and r4 share bank 0: each issue pays a collection cycle.
    const RegId dsts[6] = {1, 2, 3, 5, 6, 7};
    for (int i = 0; i < 12; ++i)
        b.iadd(dsts[i % 6], 0, 4);
    b.stGlobal(1, 1);
    b.exitKernel();
    Program p = b.finalize();

    const SimStats with = runPolicy("baseline", p, config).stats();
    EXPECT_GE(with.bankConflicts, 10u);

    GpuConfig off = gtx480Config();
    const SimStats without = runPolicy("baseline", p, off).stats();
    EXPECT_EQ(without.bankConflicts, 0u);
    EXPECT_GT(with.cycles, without.cycles);
}

TEST(BankConflicts, DistinctBanksDoNotConflict)
{
    GpuConfig config = gtx480Config();
    config.modelBankConflicts = true;
    KernelInfo info;
    info.numRegs = 8;
    info.ctaThreads = 32;
    info.gridCtas = 15;
    ProgramBuilder b(info);
    b.movImm(0, 1);
    b.movImm(1, 2);
    for (int i = 0; i < 10; ++i)
        b.iadd(2, 0, 1);  // banks 0 and 1
    b.stGlobal(2, 2);
    b.exitKernel();
    const SimStats stats =
        runPolicy("baseline", b.finalize(), config).stats();
    EXPECT_EQ(stats.bankConflicts, 0u);
}

TEST(Interpreter, TraceCapRespected)
{
    const Program p = buildWorkload("SAD");
    InterpOptions options;
    options.traceCap = 100;
    const InterpResult r = interpret(p, options);
    EXPECT_EQ(r.sampleTrace.size(), 100u);
}

TEST(Facade, OwfRunsStrippedProgram)
{
    // The "owf" policy must feed OWF a directive-free program; a
    // directive reaching OwfAllocator::prepare is a fatal error, so a
    // clean completion proves the stripping path.
    const SimStats stats =
        runPolicy("owf", buildWorkload("BFS"), gtx480Config()).stats();
    EXPECT_FALSE(stats.deadlocked);
    EXPECT_EQ(stats.allocatorName, "owf");
}

TEST(Facade, PairedReportsItsName)
{
    const PolicyRun run =
        runPolicy("paired", buildWorkload("BFS"), gtx480Config());
    EXPECT_EQ(run.stats().allocatorName, "regmutex-paired");
}

TEST(Edit, StripDirectivesIsFunctionalNoOp)
{
    const Program compiled =
        compileRegMutex(buildWorkload("ParticleFilter"), gtx480Config())
            .program;
    const Program stripped = stripDirectives(compiled);
    EXPECT_LT(stripped.size(), compiled.size());
    EXPECT_EQ(interpret(compiled).memDigest,
              interpret(stripped).memDigest);
}

TEST(Config, HalfRegisterFilePreservesEverythingElse)
{
    const GpuConfig full = gtx480Config();
    const GpuConfig half = halfRegisterFile(full);
    EXPECT_EQ(half.registersPerSm * 2, full.registersPerSm);
    EXPECT_EQ(half.maxCtasPerSm, full.maxCtasPerSm);
    EXPECT_EQ(half.globalLatency, full.globalLatency);
    EXPECT_EQ(half.sharedMemPerSm, full.sharedMemPerSm);
}

TEST(Workloads, GridCoversMultipleWavesUnderRegMutex)
{
    // Every suite workload must keep the SM busy for several CTA waves
    // even at RegMutex's raised occupancy, or the occupancy comparison
    // would measure launch tails.
    for (const auto &entry : paperSuite()) {
        const GpuConfig config = entry.occupancyLimited
                                     ? gtx480Config()
                                     : halfRegisterFile(gtx480Config());
        const Program p = buildKernel(entry.spec);
        const PolicyRun run = runPolicy("regmutex", p, config);
        EXPECT_GE(static_cast<int>(run.stats().ctasCompleted),
                  run.stats().theoreticalCtas)
            << entry.spec.name << ": grid smaller than one wave";
    }
}

} // namespace
} // namespace rm

/**
 * @file
 * Timing-model tests: scoreboard stalls, memory latency hiding across
 * warps, barrier synchronization, CTA launch/retire waves, scheduler
 * policies and the statistics the figures are computed from.
 */

#include <gtest/gtest.h>

#include "common/errors.hh"
#include "core/experiment.hh"
#include "isa/builder.hh"

namespace rm {
namespace {

KernelInfo
info(int regs, int cta_threads, int grid_ctas)
{
    KernelInfo i;
    i.numRegs = regs;
    i.ctaThreads = cta_threads;
    i.gridCtas = grid_ctas;
    return i;
}

SimStats
runProgram(const Program &program, GpuConfig config = gtx480Config())
{
    return runPolicy("baseline", program, config).stats();
}

/** A dependent ALU chain exposes the ALU latency via the scoreboard. */
TEST(Sm, DependentChainPaysAluLatency)
{
    const GpuConfig config = gtx480Config();
    ProgramBuilder b(info(4, 32, 15));  // one warp on the SM
    b.movImm(0, 1);
    const int chain = 10;
    for (int i = 0; i < chain; ++i)
        b.iadd(0, 0, 0);  // each depends on the previous
    b.exitKernel();
    const SimStats stats = runProgram(b.finalize());
    // Each dependent add waits ~aluLatency for the previous result.
    EXPECT_GE(stats.cycles,
              static_cast<std::uint64_t>(chain * config.aluLatency));
    EXPECT_GT(stats.scoreboardStalls, 0u);
}

TEST(Sm, IndependentOpsPipeline)
{
    ProgramBuilder b(info(12, 32, 15));
    b.movImm(0, 1);
    for (int i = 1; i < 11; ++i)
        b.movImm(i, i);  // all independent
    b.exitKernel();
    const SimStats stats = runProgram(b.finalize());
    // A single warp on one scheduler issues one per cycle.
    EXPECT_LE(stats.cycles, 20u);
}

/** One warp waiting on a load stalls ~globalLatency. */
TEST(Sm, GlobalLoadLatencyVisible)
{
    const GpuConfig config = gtx480Config();
    ProgramBuilder b(info(4, 32, 15));
    b.movImm(0, 64);
    b.ldGlobal(1, 0);
    b.iadd(1, 1, 1);  // depends on the load
    b.stGlobal(0, 1);
    b.exitKernel();
    const SimStats stats = runProgram(b.finalize());
    EXPECT_GE(stats.cycles,
              static_cast<std::uint64_t>(config.globalLatency));
}

/** More resident warps hide memory latency: cycles shrink. */
TEST(Sm, OccupancyHidesLatency)
{
    auto kernel = [&](int grid_ctas) {
        ProgramBuilder b(info(8, 64, grid_ctas));
        const auto head = b.newLabel();
        b.movImm(0, 20);  // trips
        b.readSreg(2, SpecialReg::CtaId);
        b.bind(head);
        b.ldGlobal(1, 2, 0);
        b.iadd(2, 2, 1);      // depends on load
        b.movImm(3, 1);
        b.isub(0, 0, 3);
        b.braNz(0, head);
        b.stGlobal(2, 2);
        b.exitKernel();
        return b.finalize();
    };

    // 15 CTAs -> 1 CTA per SM (2 warps); 120 -> 8 CTAs (16 warps).
    // Per-warp work is identical; higher occupancy must give higher
    // aggregate IPC.
    const SimStats low = runProgram(kernel(15));
    const SimStats high = runProgram(kernel(120));
    EXPECT_GT(high.ipc(), low.ipc() * 4.0);
}

TEST(Sm, BarrierSynchronizesWarps)
{
    // Warp 0 does extra work before the barrier; warp 1 must wait.
    ProgramBuilder b(info(8, 64, 15));
    const auto skip = b.newLabel();
    const auto work = b.newLabel();
    b.readSreg(0, SpecialReg::WarpInCta);
    b.braNz(0, skip);       // warp 1 skips the work loop
    b.movImm(1, 50);
    b.bind(work);
    b.movImm(2, 1);
    b.isub(1, 1, 2);
    b.braNz(1, work);
    b.bind(skip);
    b.bar();
    b.movImm(3, 7);
    b.stGlobal(3, 3);
    b.exitKernel();
    const SimStats stats = runProgram(b.finalize());
    EXPECT_GT(stats.barrierStalls, 0u);
    EXPECT_EQ(stats.ctasCompleted, 1u);
    EXPECT_FALSE(stats.deadlocked);
}

TEST(Sm, CtaWavesLaunchAndRetire)
{
    // 8-CTA capacity kernel with 60 CTAs for this SM's share: waves.
    ProgramBuilder b(info(8, 192, 15 * 8));
    b.movImm(0, 1);
    b.stGlobal(0, 0);
    b.exitKernel();
    const SimStats stats = runProgram(b.finalize());
    EXPECT_EQ(stats.ctasCompleted, 8u);
    EXPECT_EQ(stats.theoreticalCtas, 8);
}

TEST(Sm, TheoreticalOccupancyReported)
{
    // 24 regs, 512-thread CTAs: 2 CTAs = 32 warps of 48 = 66.7%.
    ProgramBuilder b(info(24, 512, 15));
    b.movImm(0, 1);
    b.exitKernel();
    Program p = b.finalize();
    p.info.numRegs = 24;
    const SimStats stats = runProgram(p);
    EXPECT_EQ(stats.theoreticalCtas, 2);
    EXPECT_EQ(stats.theoreticalWarps, 32);
    EXPECT_NEAR(stats.theoreticalOccupancy, 32.0 / 48.0, 1e-9);
}

TEST(Sm, MemStructuralLimitEnforced)
{
    const GpuConfig config = gtx480Config();
    // Issue more independent loads than maxPendingMemPerWarp.
    ProgramBuilder b(info(16, 32, 15));
    b.movImm(0, 64);
    for (int i = 1; i <= 12; ++i)
        b.ldGlobal(i, 0, i);
    b.exitKernel();
    const SimStats stats = runProgram(b.finalize());
    EXPECT_GT(stats.memStructuralStalls, 0u);
    (void)config;
}

TEST(Sm, LrrSchedulerRuns)
{
    GpuConfig config = gtx480Config();
    config.schedPolicy = SchedPolicy::Lrr;
    ProgramBuilder b(info(8, 64, 30));
    b.movImm(0, 5);
    const auto head = b.newLabel();
    b.bind(head);
    b.movImm(1, 1);
    b.isub(0, 0, 1);
    b.braNz(0, head);
    b.exitKernel();
    const SimStats stats = runProgram(b.finalize(), config);
    EXPECT_FALSE(stats.deadlocked);
    EXPECT_EQ(stats.ctasCompleted, 2u);
}

TEST(Sm, AvgResidentWarpsTracked)
{
    ProgramBuilder b(info(8, 64, 15));
    b.movImm(0, 1);
    b.exitKernel();
    const SimStats stats = runProgram(b.finalize());
    EXPECT_GT(stats.avgResidentWarps, 0.0);
    EXPECT_LE(stats.avgResidentWarps, 2.0);  // one 2-warp CTA
}

TEST(Sm, InstructionsMatchInterpreterLevelCount)
{
    // The timing simulator executes exactly the program's dynamic
    // instruction stream: 2 warps x (2 + exit).
    ProgramBuilder b(info(4, 64, 15));
    b.movImm(0, 1);
    b.iadd(0, 0, 0);
    b.exitKernel();
    const SimStats stats = runProgram(b.finalize());
    EXPECT_EQ(stats.instructions, 2u * 3u);
}

TEST(Sm, KernelTooLargeForRegisterFileFatals)
{
    ProgramBuilder b(info(64, 1024, 15));
    b.movImm(0, 1);
    b.exitKernel();
    Program p = b.finalize();
    p.info.numRegs = 64;
    EXPECT_THROW(runProgram(p), FatalError);
}

TEST(Sm, EngineRunsItsWholeOneWordEnvelope)
{
    // Maxwell has kEngineWordBits warp slots and 32 CTA slots, so
    // two-warp CTAs occupy every slot.
    const GpuConfig maxwell = maxwellConfig();
    ProgramBuilder slots(info(8, 64, 32 * maxwell.numSms));
    slots.movImm(0, 1);
    slots.iadd(0, 0, 0);
    slots.stGlobal(0, 0);
    slots.exitKernel();
    const SimStats full = runProgram(slots.finalize(), maxwell);
    EXPECT_EQ(full.theoreticalWarps, kEngineWordBits);
    EXPECT_EQ(full.ctasCompleted, 32u);

    // kEngineWordBits registers per thread: every scoreboard bit.
    ProgramBuilder regs(info(kEngineWordBits, 32, 15));
    for (int r = 0; r < kEngineWordBits; ++r)
        regs.movImm(static_cast<RegId>(r), r);
    for (int r = 1; r < kEngineWordBits; ++r)
        regs.iadd(0, 0, static_cast<RegId>(r));
    regs.stGlobal(0, 0);
    regs.exitKernel();
    const SimStats wide = runProgram(regs.finalize());
    EXPECT_FALSE(wide.deadlocked);
    EXPECT_EQ(wide.ctasCompleted, 1u);
}

TEST(Sm, WiderThanOneWordIsRejectedBeforeAnyAllocatorIsPrepared)
{
    int prepared = 0;
    const AllocatorFactory counting = [&prepared](const GpuConfig &config,
                                                  const Program &program) {
        ++prepared;
        return PolicyRegistry::instance().at("baseline").allocator(
            config, program);
    };
    const auto expect_rejected = [&](const GpuConfig &config,
                                     const Program &program,
                                     const std::string &what) {
        try {
            simulateGpu(config, program, counting);
            ADD_FAILURE() << "expected FatalError naming " << what;
        } catch (const FatalError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find(what), std::string::npos) << msg;
            EXPECT_NE(msg.find("at most 64"), std::string::npos) << msg;
        }
    };

    ProgramBuilder small(info(8, 32, 15));
    small.movImm(0, 1);
    small.exitKernel();
    GpuConfig slots = keplerConfig();
    slots.maxWarpsPerSm = kEngineWordBits + 1;
    expect_rejected(slots, small.finalize(), "65 warp slots");

    ProgramBuilder fat(info(kEngineWordBits + 1, 32, 15));
    fat.movImm(kEngineWordBits, 1);
    fat.exitKernel();
    expect_rejected(keplerConfig(), fat.finalize(), "65 registers");

    EXPECT_EQ(prepared, 0);
}

} // namespace
} // namespace rm

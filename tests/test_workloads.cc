/**
 * @file
 * Workload-suite tests: every synthetic kernel's liveness peak equals
 * its declared (Table I) register demand, the occupancy-limitation
 * grouping holds on the right architecture, and the |Es| heuristic
 * reproduces Table I's base-set sizes (LavaMD excepted — see
 * EXPERIMENTS.md). loadKernel, the command-line kernel loader, builds
 * the same programs from names and assembly files.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "analysis/cfg.hh"
#include "analysis/liveness.hh"
#include "common/errors.hh"
#include "compiler/pipeline.hh"
#include "isa/asm_parser.hh"
#include "sim/interpreter.hh"
#include "sim/occupancy.hh"
#include "workloads/suite.hh"

namespace rm {
namespace {

class SuiteWorkload : public ::testing::TestWithParam<std::string>
{
  protected:
    const WorkloadEntry &entry() const { return workload(GetParam()); }
};

TEST_P(SuiteWorkload, LivenessPeakEqualsDeclaredRegisters)
{
    const Program p = buildKernel(entry().spec);
    EXPECT_EQ(p.info.numRegs, entry().paperRegs);
    const Liveness live = Liveness::compute(p, Cfg::build(p));
    EXPECT_EQ(live.maxLiveCount(), entry().paperRegs)
        << "peak pressure must equal the Table I register count";
}

TEST_P(SuiteWorkload, RunsToCompletionFunctionally)
{
    const Program p = buildKernel(entry().spec);
    const InterpResult r = interpret(p);
    EXPECT_FALSE(r.hitStepLimit);
    EXPECT_GT(r.totalInstructions, 1000u);
}

TEST_P(SuiteWorkload, OccupancyGroupingOnFullRegisterFile)
{
    const GpuConfig full = gtx480Config();
    const Program p = buildKernel(entry().spec);
    const Occupancy occ =
        computeOccupancy(full, roundRegs(full, p.info.numRegs),
                         p.info.ctaThreads, p.info.sharedBytesPerCta);
    if (entry().occupancyLimited) {
        EXPECT_EQ(occ.limiter, OccLimiter::Registers)
            << "Fig. 7 workloads are register-limited on the full RF";
    } else {
        EXPECT_NE(occ.limiter, OccLimiter::Registers)
            << "Fig. 8 workloads are not register-limited on the "
               "full RF";
    }
}

TEST_P(SuiteWorkload, HeuristicMatchesTableOne)
{
    if (GetParam() == "LavaMD")
        GTEST_SKIP() << "LavaMD's paper split is unreachable under "
                        "CTA-granularity allocation; see EXPERIMENTS.md";
    const GpuConfig config = entry().occupancyLimited
                                 ? gtx480Config()
                                 : halfRegisterFile(gtx480Config());
    const Program p = buildKernel(entry().spec);
    const CompileResult compiled = compileRegMutex(p, config);
    ASSERT_TRUE(compiled.enabled());
    EXPECT_EQ(compiled.selection.bs, entry().paperBs);
}

TEST_P(SuiteWorkload, ScrambleChangesLayoutNotSemantics)
{
    KernelSpec scrambled = entry().spec;
    KernelSpec plain = entry().spec;
    plain.scramble = false;
    const Program a = buildKernel(scrambled);
    const Program b = buildKernel(plain);
    EXPECT_EQ(interpret(a).memDigest, interpret(b).memDigest);
    const Liveness la = Liveness::compute(a, Cfg::build(a));
    const Liveness lb = Liveness::compute(b, Cfg::build(b));
    EXPECT_EQ(la.maxLiveCount(), lb.maxLiveCount());
}

TEST_P(SuiteWorkload, LoadKernelBuildsTheWorkload)
{
    EXPECT_EQ(emitProgram(loadKernel(GetParam())),
              emitProgram(buildWorkload(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SuiteWorkload,
    ::testing::ValuesIn([] {
        std::vector<std::string> names;
        for (const auto &entry : paperSuite())
            names.push_back(entry.spec.name);
        return names;
    }()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (auto &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(Suite, SixteenWorkloadsInTableOrder)
{
    const auto &suite = paperSuite();
    ASSERT_EQ(suite.size(), 16u);
    EXPECT_EQ(suite.front().spec.name, "BFS");
    EXPECT_EQ(suite.back().spec.name, "TPACF");
    EXPECT_EQ(occupancyLimitedSet().size(), 8u);
    EXPECT_EQ(halfRfSet().size(), 8u);
}

TEST(Suite, UnknownWorkloadFatals)
{
    EXPECT_THROW(workload("NoSuchKernel"), FatalError);
}

TEST(LoadKernel, AsmFileLoadsBackEqual)
{
    const std::string text = emitProgram(buildWorkload("SAD"));
    const std::string path =
        ::testing::TempDir() + "rm_load_kernel_sad.asm";
    std::ofstream(path) << text;
    const std::string loaded = emitProgram(loadKernel(path));
    std::remove(path.c_str());
    EXPECT_EQ(loaded, text);
}

TEST(LoadKernel, UnknownNameOrMissingFileFatals)
{
    EXPECT_THROW(loadKernel("NOPE"), FatalError);
    EXPECT_THROW(loadKernel(::testing::TempDir() + "rm_no_such_kernel.asm"),
                 FatalError);
}

TEST(Generator, RejectsInconsistentSpecs)
{
    KernelSpec spec;
    spec.regs = 10;
    spec.persistent = 4;
    spec.phases = {{.trips = 1, .peak = 30, .loads = 2}};  // peak > regs
    EXPECT_THROW(buildKernel(spec), FatalError);

    spec.phases = {{.trips = 1, .peak = 5, .loads = 2}};  // too small
    EXPECT_THROW(buildKernel(spec), FatalError);

    spec.phases.clear();
    EXPECT_THROW(buildKernel(spec), FatalError);
}

TEST(Generator, GridScalesWithSmCount)
{
    const KernelSpec &spec = workload("BFS").spec;
    const Program p15 = buildKernel(spec, 15);
    const Program p1 = buildKernel(spec, 1);
    EXPECT_EQ(p15.info.gridCtas, spec.gridCtasPerSm * 15);
    EXPECT_EQ(p1.info.gridCtas, spec.gridCtasPerSm);
}

TEST(Generator, BarrierLiveCountIsExact)
{
    // DWT2D declares 33 live registers at its barrier.
    const Program p = buildWorkload("DWT2D");
    const Liveness live = Liveness::compute(p, Cfg::build(p));
    int live_at_bar = -1;
    for (std::size_t i = 0; i < p.code.size(); ++i) {
        if (p.code[i].op == Opcode::Bar)
            live_at_bar = live.liveCount(static_cast<int>(i));
    }
    EXPECT_EQ(live_at_bar, 33);
}

} // namespace
} // namespace rm

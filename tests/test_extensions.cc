/**
 * @file
 * Tests for the extension modules: the nvdisasm-style liveness
 * renderer, the register-file energy model, and the heuristic
 * tie-break variants.
 */

#include <gtest/gtest.h>

#include "analysis/cfg.hh"
#include "analysis/liveness.hh"
#include "analysis/liveness_report.hh"
#include "common/errors.hh"
#include "compiler/pipeline.hh"
#include "core/experiment.hh"
#include "isa/builder.hh"
#include "regmutex/energy.hh"
#include "workloads/suite.hh"

namespace rm {
namespace {

TEST(LivenessReport, MarksDefsUsesAndLiveThrough)
{
    KernelInfo info;
    info.numRegs = 3;
    info.ctaThreads = 32;
    ProgramBuilder b(info);
    b.movImm(0, 1);    // def r0
    b.movImm(1, 2);    // def r1; r0 live-through
    b.iadd(2, 0, 1);   // uses r0 r1, def r2
    b.stGlobal(2, 2);  // uses r2 twice
    b.exitKernel();
    const Program p = b.finalize();
    const Liveness live = Liveness::compute(p, Cfg::build(p));
    const std::string report = renderLiveness(p, live);

    // Row of instruction 1: def r1 ('v'), r0 live-through ('|').
    std::istringstream lines(report);
    std::string line;
    std::getline(lines, line);  // header tens
    std::getline(lines, line);  // header units
    std::getline(lines, line);  // inst 0
    EXPECT_NE(line.find('v'), std::string::npos);
    std::getline(lines, line);  // inst 1
    EXPECT_NE(line.find('|'), std::string::npos);
    EXPECT_NE(line.find('v'), std::string::npos);
    std::getline(lines, line);  // inst 2
    EXPECT_NE(line.find('^'), std::string::npos);
}

TEST(LivenessReport, BaseGutterSeparatesExtendedColumns)
{
    const Program p =
        compileRegMutex(buildWorkload("BFS"), gtx480Config()).program;
    const Liveness live = Liveness::compute(p, Cfg::build(p));
    const std::string report =
        renderLiveness(p, live, p.regmutex.baseRegs);
    EXPECT_NE(report.find('!'), std::string::npos);
    // One row per instruction plus the two header lines.
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(report.begin(), report.end(), '\n')),
              p.size() + 2);
}

TEST(Energy, ScalesWithFileSize)
{
    const EnergyParams params;
    EXPECT_DOUBLE_EQ(accessScale(params, 131072), 1.0);
    EXPECT_DOUBLE_EQ(leakScale(params, 131072), 1.0);
    EXPECT_DOUBLE_EQ(leakScale(params, 65536), 0.5);
    EXPECT_NEAR(accessScale(params, 65536), 0.7071, 1e-3);
    EXPECT_THROW(accessScale(params, 0), FatalError);
}

TEST(Energy, HalfFileWithRegMutexSavesEnergy)
{
    // The "performance per dollar" claim in energy terms: half the
    // file leaks half as much, and RegMutex keeps cycles close to the
    // full-file baseline, so total register-file energy drops.
    const GpuConfig full = gtx480Config();
    const GpuConfig half = halfRegisterFile(full);
    const Program p = buildWorkload("SPMV");

    const SimStats base_full = runPolicy("baseline", p, full).stats();
    const PolicyRun rmx_half = runPolicy("regmutex", p, half);

    const EnergyReport e_full = estimateEnergy(full, base_full);
    const EnergyReport e_half = estimateEnergy(half, rmx_half.stats());
    EXPECT_LT(e_half.leakageEnergy, e_full.leakageEnergy);
    EXPECT_LT(e_half.total(), e_full.total());
    EXPECT_GT(e_half.directiveEnergy, 0.0);
}

TEST(Energy, DirectiveOverheadCounted)
{
    const GpuConfig config = gtx480Config();
    const Program p = buildWorkload("BFS");
    const SimStats base = runPolicy("baseline", p, config).stats();
    const EnergyReport report = estimateEnergy(config, base);
    EXPECT_DOUBLE_EQ(report.directiveEnergy, 0.0);
    EXPECT_GT(report.dynamicEnergy, 0.0);
    EXPECT_GT(report.leakageEnergy, 0.0);
}

TEST(TieBreak, VariantsDivergeOnTheWorkedExample)
{
    // 24-register kernel (the paper's worked example): {6, 8} both
    // reach full occupancy and pass the half rule; smallest-passing
    // picks 6 (the paper's answer), largest-passing picks 8.
    KernelInfo info;
    info.numRegs = 24;
    info.ctaThreads = 512;
    info.gridCtas = 15;
    ProgramBuilder b(info);
    for (int r = 0; r < 24; ++r)
        b.movImm(static_cast<RegId>(r), r);
    for (int r = 1; r < 24; ++r)
        b.iadd(0, 0, static_cast<RegId>(r));
    b.stGlobal(0, 0);
    b.exitKernel();
    const Program p = b.finalize();
    const Cfg cfg = Cfg::build(p);
    const Liveness live = Liveness::compute(p, cfg);

    const EsSelection small = selectExtendedSet(
        p, gtx480Config(), live, EsTieBreak::SmallestPassing);
    const EsSelection large = selectExtendedSet(
        p, gtx480Config(), live, EsTieBreak::LargestPassing);
    EXPECT_EQ(small.es, 6);
    EXPECT_EQ(large.es, 8);
}

TEST(TieBreak, PipelinePlumbsTheOption)
{
    const Program p = buildWorkload("RadixSort");
    CompileOptions large;
    large.tieBreak = EsTieBreak::LargestPassing;
    const CompileResult a = compileRegMutex(p, gtx480Config());
    const CompileResult b = compileRegMutex(p, gtx480Config(), large);
    ASSERT_TRUE(a.enabled());
    ASSERT_TRUE(b.enabled());
    EXPECT_LE(a.selection.es, b.selection.es);
}

} // namespace
} // namespace rm

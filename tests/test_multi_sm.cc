/**
 * @file
 * The multi-SM Gpu engine: exact CTA distribution across SMs, the
 * representative-SM mode's equivalence with the seed single-SM path,
 * bit-identical determinism for any engine thread count, and the
 * aggregate/per-SM statistic identities.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/experiment.hh"
#include "obs/export.hh"
#include "sim/diagnosis.hh"
#include "sim/fault.hh"
#include "sim/gpu.hh"
#include "workloads/suite.hh"

namespace rm {

/** gtest prints a SimStats as its statsToJson document. */
void
PrintTo(const SimStats &stats, std::ostream *os)
{
    *os << statsToJson(stats);
}

namespace {

TEST(CtaDistribution, SharesSumToGridAndDifferByAtMostOne)
{
    for (int sms = 1; sms <= 16; ++sms) {
        GpuConfig config = gtx480Config();
        config.numSms = sms;
        for (int grid = 0; grid <= 3 * sms + 2; ++grid) {
            int total = 0;
            int lo = grid, hi = 0;
            for (int sm = 0; sm < sms; ++sm) {
                const int share = ctasForSm(config, grid, sm);
                total += share;
                lo = std::min(lo, share);
                hi = std::max(hi, share);
                // Remainder CTAs land on the lowest SM ids: shares are
                // non-increasing in the SM id.
                if (sm > 0) {
                    EXPECT_LE(share, ctasForSm(config, grid, sm - 1));
                }
            }
            EXPECT_EQ(total, grid) << grid << " CTAs on " << sms << " SMs";
            EXPECT_LE(hi - lo, 1);
        }
    }
}

TEST(CtaDistribution, RepresentativeShareIsSmZerosShare)
{
    // ctasPerSmShare() must keep the seed's ceil(grid / numSms): SM 0
    // always holds the largest share, which is exactly that ceiling.
    Program p = buildWorkload("BFS");
    for (int sms : {1, 2, 7, 15, 16}) {
        GpuConfig config = gtx480Config();
        config.numSms = sms;
        const int grid = p.info.gridCtas;
        EXPECT_EQ(ctasPerSmShare(config, p),
                  (grid + sms - 1) / sms);
        EXPECT_EQ(ctasPerSmShare(config, p), ctasForSm(config, grid, 0));
    }
}

TEST(MultiSm, FullMachineWithOneSmMatchesSeedSimulatePath)
{
    const Program p = buildWorkload("BFS");
    GpuConfig config = gtx480Config();
    config.numSms = 1;

    const SimStats seed = runPolicy("baseline", p, config).stats();

    RunOptions options;
    options.gpu.mode = GpuOptions::Mode::FullMachine;
    const PolicyRun full = runPolicy("baseline", p, config, options);

    ASSERT_EQ(full.result.numSms(), 1);
    EXPECT_EQ(seed, full.stats());
}

TEST(MultiSm, RepresentativeModeIsTheDefaultSeedBehavior)
{
    const Program p = buildWorkload("ParticleFilter");
    const GpuConfig config = gtx480Config(); // 15 SMs in the config

    RunOptions representative;
    representative.gpu.mode = GpuOptions::Mode::Representative;
    const SimStats seed =
        runPolicy("baseline", p, config, representative).stats();
    const PolicyRun run = runPolicy("baseline", p, config);

    // Default mode simulates one representative SM regardless of
    // config.numSms, exactly like the seed model.
    ASSERT_EQ(run.result.numSms(), 1);
    EXPECT_EQ(seed, run.stats());
}

TEST(MultiSm, DeterministicAcrossEngineThreadCounts)
{
    Program p = buildWorkload("BFS");
    p.info.gridCtas = 23; // uneven over 5 SMs: shares 5,5,5,4,4
    GpuConfig config = gtx480Config();
    config.numSms = 5;

    auto runWith = [&](int threads) {
        RunOptions options;
        options.gpu.mode = GpuOptions::Mode::FullMachine;
        options.gpu.threads = threads;
        return runPolicy("regmutex", p, config, options).result;
    };

    const GpuResult serial = runWith(1);
    const GpuResult four = runWith(4);
    const GpuResult pool = runWith(0);

    ASSERT_EQ(serial.numSms(), 5);
    ASSERT_EQ(four.numSms(), 5);
    ASSERT_EQ(pool.numSms(), 5);
    for (int sm = 0; sm < 5; ++sm) {
        const auto i = static_cast<std::size_t>(sm);
        EXPECT_EQ(serial.perSm[i], four.perSm[i]);
        EXPECT_EQ(serial.perSm[i], pool.perSm[i]);
    }
    EXPECT_EQ(serial.aggregate, four.aggregate);
    EXPECT_EQ(serial.aggregate, pool.aggregate);
}

TEST(MultiSm, AggregateIdentitiesHold)
{
    Program p = buildWorkload("SAD");
    p.info.gridCtas = 14; // 6 SMs: shares 3,3,2,2,2,2
    GpuConfig config = gtx480Config();
    config.numSms = 6;

    RunOptions options;
    options.gpu.mode = GpuOptions::Mode::FullMachine;
    options.gpu.threads = 0;
    const GpuResult run = runPolicy("baseline", p, config, options).result;

    ASSERT_EQ(run.numSms(), 6);
    std::uint64_t max_cycles = 0, instructions = 0, ctas = 0;
    for (int sm = 0; sm < 6; ++sm) {
        const SimStats &s = run.perSm[static_cast<std::size_t>(sm)];
        max_cycles = std::max(max_cycles, s.cycles);
        instructions += s.instructions;
        ctas += s.ctasCompleted;
        // Each SM completes exactly its assigned share.
        EXPECT_EQ(s.ctasCompleted,
                  static_cast<std::uint64_t>(
                      ctasForSm(config, p.info.gridCtas, sm)));
    }
    EXPECT_EQ(run.aggregate.cycles, max_cycles);
    EXPECT_EQ(run.aggregate.instructions, instructions);
    EXPECT_EQ(run.aggregate.ctasCompleted, ctas);
    EXPECT_EQ(ctas, static_cast<std::uint64_t>(p.info.gridCtas));
    EXPECT_FALSE(run.aggregate.deadlocked);
}

TEST(MultiSm, FullMachineAgreesWithRepresentativeModel)
{
    // The acceptance check behind bench/validation_multi_sm: on the
    // real 15-SM machine the per-SM grid slices are statistically
    // identical, so machine time stays close to the representative SM.
    const Program p = buildWorkload("BFS");
    const GpuConfig config = gtx480Config();

    const SimStats rep = runPolicy("baseline", p, config).stats();

    RunOptions options;
    options.gpu.mode = GpuOptions::Mode::FullMachine;
    options.gpu.threads = 0;
    const PolicyRun full = runPolicy("baseline", p, config, options);

    ASSERT_EQ(full.result.numSms(), config.numSms);
    const double drift =
        std::abs(static_cast<double>(full.stats().cycles) -
                 static_cast<double>(rep.cycles)) /
        static_cast<double>(rep.cycles);
    EXPECT_LT(drift, 0.05);
    // SM 0 shares the representative SM's seed and grid share, so it
    // reproduces the single-SM run bit-exactly.
    EXPECT_EQ(rep, full.result.perSm.front());
}

TEST(MultiSm, WatchdogOnOneSmPropagatesCleanlyOutOfThreadPool)
{
    // A fault-wedged SM in the middle of a FullMachine run must
    // surface its SimulationError (diagnosis attached) through
    // parallelFor without hanging or tearing the other SMs' threads.
    const Program p = buildWorkload("BFS");
    GpuConfig config = gtx480Config();
    config.numSms = 3;
    config.watchdogCycles = 20'000;

    RunOptions options;
    options.gpu.mode = GpuOptions::Mode::FullMachine;
    options.gpu.threads = 0; // shared pool: the error crosses threads
    options.gpu.faultSm = 1;
    options.gpu.fault.delayRelease = {0, 1'000'000'000};
    options.gpu.fault.releaseDelayCycles = 1'000'000'000;

    try {
        runPolicy("regmutex", p, config, options);
        FAIL() << "expected SimulationError from the wedged SM";
    } catch (const SimulationError &e) {
        ASSERT_TRUE(e.diagnosis());
        EXPECT_EQ(e.diagnosis()->smId, 1);
        EXPECT_TRUE(e.diagnosis()->watchdogExpired);
        EXPECT_EQ(e.diagnosis()->kernel, "BFS");
        EXPECT_EQ(e.diagnosis()->policy, "regmutex");
        EXPECT_FALSE(e.diagnosis()->warps.empty());
    }

    // The pool survives the failure: the same run without the fault
    // completes normally afterwards.
    options.gpu.fault = FaultPlan{};
    const PolicyRun clean = runPolicy("regmutex", p, config, options);
    EXPECT_FALSE(clean.stats().deadlocked);
    EXPECT_EQ(clean.result.numSms(), 3);
}

} // namespace
} // namespace rm

/**
 * @file
 * Engine-history equivalence: the refactored hot core (SoA WarpStore,
 * indexed EventWheel, skip-ahead cycle loop) must reproduce the
 * pre-refactor engine bit for bit. tests/golden/engine_stats.tsv was
 * frozen from that engine (heap-of-Events, AoS SimWarp, per-cycle
 * loop; see tests/make_engine_goldens.cc); this suite replays the same
 * grid on the current engine and demands identical statsToJson
 * documents, identical results with skip-ahead disabled (with and
 * without a sampler attached), a bit-exact resume from a mid-run
 * snapshot, and an exact count of the cycles the loop stepped rather
 * than skipped.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/sampler.hh"
#include "sim/config.hh"
#include "sim/event_wheel.hh"
#include "sim/sm.hh"
#include "sim/snapshot.hh"
#include "workloads/suite.hh"

namespace rm {
namespace {

std::string
goldenPath(const std::string &name)
{
    return std::string(RM_TEST_GOLDEN_DIR) + "/" + name;
}

/** key -> statsToJson document, loaded from engine_stats.tsv. */
const std::map<std::string, std::string> &
goldenStats()
{
    static const std::map<std::string, std::string> table = [] {
        std::map<std::string, std::string> t;
        std::ifstream in(goldenPath("engine_stats.tsv"));
        EXPECT_TRUE(in.good()) << "missing engine_stats.tsv fixture";
        std::string line;
        while (std::getline(in, line)) {
            const std::size_t tab = line.find('\t');
            if (tab == std::string::npos)
                continue;
            t.emplace(line.substr(0, tab), line.substr(tab + 1));
        }
        return t;
    }();
    return table;
}

/** The fault plan the goldens were frozen under (keep in sync with
 *  tests/make_engine_goldens.cc). */
FaultPlan
goldenFaultPlan()
{
    FaultPlan plan;
    plan.denyAcquire = {1000, 3000};
    plan.memSpike = {500, 2500};
    plan.memSpikeFactor = 4;
    return plan;
}

struct Case
{
    std::string key;
    std::string workload;
    std::string policy;
    bool faulted = false;
    bool fullMachine = false;
};

std::vector<Case>
goldenCases()
{
    std::vector<Case> cases;
    const std::vector<std::string> policies = {"baseline", "regmutex",
                                               "paired", "owf", "rfv"};
    for (const std::string &policy : policies) {
        cases.push_back({"BFS/" + policy + "/rep/clean", "BFS", policy,
                         false, false});
        cases.push_back({"BFS/" + policy + "/rep/faulted", "BFS", policy,
                         true, false});
    }
    for (const std::string &policy : {std::string("regmutex"),
                                      std::string("rfv")}) {
        cases.push_back({"BFS/" + policy + "/full4/clean", "BFS", policy,
                         false, true});
    }
    cases.push_back({"SPMV/baseline/rep/clean", "SPMV", "baseline",
                     false, false});
    cases.push_back({"SPMV/regmutex/rep/clean", "SPMV", "regmutex",
                     false, false});
    return cases;
}

PolicyRun
runCase(const Case &c, int threads)
{
    Program program = buildWorkload(c.workload);
    GpuConfig config = gtx480Config();
    RunOptions options;
    if (c.fullMachine) {
        program.info.gridCtas = 13;
        config.numSms = 4;
        options.gpu.mode = GpuOptions::Mode::FullMachine;
        options.gpu.threads = threads;
    }
    if (c.faulted)
        options.gpu.fault = goldenFaultPlan();
    return runPolicy(c.policy, program, config, options);
}

void
expectMatchesGolden(const Case &c, int threads)
{
    const auto it = goldenStats().find(c.key);
    ASSERT_NE(it, goldenStats().end()) << "no golden for " << c.key;
    const PolicyRun run = runCase(c, threads);
    ASSERT_TRUE(run.result.completed()) << c.key;
    EXPECT_EQ(statsToJson(run.stats()), it->second)
        << c.key << " (threads=" << threads << ") diverged from the "
        << "pre-refactor golden";
}

/** Restores the process-wide skip-ahead toggle on scope exit. */
class SkipAheadGuard
{
  public:
    explicit SkipAheadGuard(bool enabled) { Sm::setSkipAhead(enabled); }
    ~SkipAheadGuard() { Sm::setSkipAhead(true); }
};

TEST(EngineEquivalence, MatchesPreRefactorGoldens)
{
    for (const Case &c : goldenCases())
        expectMatchesGolden(c, 1);
}

TEST(EngineEquivalence, FullMachineMatchesAcrossThreadCounts)
{
    for (const Case &c : goldenCases()) {
        if (c.fullMachine)
            expectMatchesGolden(c, 8);
    }
}

TEST(EngineEquivalence, SkipAheadOffIsBitIdentical)
{
    SkipAheadGuard guard(false);
    for (const Case &c : goldenCases()) {
        if (!c.fullMachine)
            expectMatchesGolden(c, 1);
    }
}

/** A golden case run with a registry and sampler attached to SM 0. */
struct SampledRun
{
    MetricsRegistry registry;
    Sampler sampler{registry, 250};
    PolicyRun run;

    explicit SampledRun(const Case &c)
    {
        Program program = buildWorkload(c.workload);
        RunOptions options;
        if (c.faulted)
            options.gpu.fault = goldenFaultPlan();
        options.gpu.obs.metrics = &registry;
        options.gpu.obs.sampler = &sampler;
        run = runPolicy(c.policy, program, gtx480Config(), options);
    }
};

TEST(EngineEquivalence, SampledRunsSkipAheadBitIdentically)
{
    // Skip-ahead stays on with sinks attached and stops short of every
    // sample cycle, so stats and series must equal the per-cycle run's.
    for (const Case &c : goldenCases()) {
        if (c.fullMachine)
            continue;
        const SampledRun fast(c);
        std::optional<SampledRun> slow;
        {
            SkipAheadGuard guard(false);
            slow.emplace(c);
        }
        ASSERT_TRUE(fast.run.result.completed()) << c.key;
        EXPECT_EQ(statsToJson(fast.run.stats()), goldenStats().at(c.key))
            << c.key;
        EXPECT_EQ(fast.run.stats(), slow->run.stats()) << c.key;
        EXPECT_LT(fast.run.result.steppedCycles, fast.run.stats().cycles)
            << c.key;
        EXPECT_EQ(slow->run.result.steppedCycles, slow->run.stats().cycles)
            << c.key;
        EXPECT_EQ(fast.sampler.samples().size(),
                  fast.run.stats().cycles / fast.sampler.interval())
            << c.key;
        EXPECT_EQ(fast.sampler.columns(), slow->sampler.columns()) << c.key;
        ASSERT_EQ(fast.sampler.samples().size(),
                  slow->sampler.samples().size())
            << c.key;
        for (std::size_t i = 0; i < fast.sampler.samples().size(); ++i) {
            const SamplePoint &a = fast.sampler.samples()[i];
            const SamplePoint &b = slow->sampler.samples()[i];
            EXPECT_EQ(a.cycle, b.cycle) << c.key;
            EXPECT_EQ(a.values, b.values)
                << c.key << " sample at cycle " << a.cycle;
        }
    }
}

/** BFS/regmutex on the 4-SM machine of the full4 golden cases. */
PolicyRun
runFull4(int threads, RunOptions options = {})
{
    Program program = buildWorkload("BFS");
    program.info.gridCtas = 13;
    GpuConfig config = gtx480Config();
    config.numSms = 4;
    options.gpu.mode = GpuOptions::Mode::FullMachine;
    options.gpu.threads = threads;
    return runPolicy("regmutex", program, config, options);
}

std::uint64_t
sumSmCycles(const GpuResult &result)
{
    std::uint64_t total = 0;
    for (const SimStats &sm : result.perSm)
        total += sm.cycles;
    return total;
}

TEST(SteppedCycles, SkipAheadOffStepsEveryCycle)
{
    SkipAheadGuard guard(false);
    const PolicyRun run = runFull4(1);
    ASSERT_TRUE(run.result.completed());
    EXPECT_EQ(run.result.steppedCycles, sumSmCycles(run.result));
}

TEST(SteppedCycles, SkipAheadStepsFewerCyclesAtAnyThreadCount)
{
    const PolicyRun serial = runFull4(1);
    const PolicyRun pooled = runFull4(8);
    ASSERT_TRUE(serial.result.completed());
    ASSERT_TRUE(pooled.result.completed());
    EXPECT_LT(serial.result.steppedCycles, sumSmCycles(serial.result));
    EXPECT_EQ(serial.result.steppedCycles, pooled.result.steppedCycles);
}

TEST(SteppedCycles, ResumedRunCountsOnlyItsOwnLegs)
{
    // Every SM is cut at exactly C, so the first run steps C per SM
    // and the resumed one steps the remaining cycles - C.
    SkipAheadGuard guard(false);
    constexpr std::uint64_t kCut = 2500;
    RunOptions cut;
    cut.gpu.control.maxCycles = kCut;
    const PolicyRun first = runFull4(1, cut);
    ASSERT_FALSE(first.result.completed());
    for (const SimStats &sm : first.result.perSm)
        ASSERT_EQ(sm.cycles, kCut);
    EXPECT_EQ(first.result.steppedCycles, kCut * 4);

    RunOptions resume;
    resume.gpu.resume = first.result.snapshot;
    const PolicyRun second = runFull4(1, resume);
    ASSERT_TRUE(second.result.completed());
    EXPECT_EQ(second.result.steppedCycles,
              sumSmCycles(second.result) - kCut * 4);
}

TEST(EngineEquivalence, MidRunSnapshotUsesCurrentCodec)
{
    // Cut BFS/regmutex at cycle 2500: the capture must carry the
    // current version tag and resume to the uninterrupted golden run.
    RunOptions cut;
    cut.gpu.control.maxCycles = 2500;
    const PolicyRun preempted =
        runPolicy("regmutex", buildWorkload("BFS"), gtx480Config(), cut);
    ASSERT_FALSE(preempted.result.completed());
    ASSERT_NE(preempted.result.snapshot, nullptr);
    const std::string bytes = preempted.result.snapshot->serialize();
    SnapshotReader r(bytes);
    EXPECT_EQ(r.u32(), GpuSnapshot::kMagic);
    EXPECT_EQ(r.u32(), GpuSnapshot::kVersion);

    RunOptions options;
    options.gpu.resume = preempted.result.snapshot;
    const PolicyRun resumed =
        runPolicy("regmutex", buildWorkload("BFS"), gtx480Config(), options);
    ASSERT_TRUE(resumed.result.completed());
    EXPECT_EQ(statsToJson(resumed.stats()),
              goldenStats().at("BFS/regmutex/rep/clean"));
}

TEST(EventWheelTest, SameCycleEventsDrainInPushOrder)
{
    EventWheel wheel(64);
    wheel.reset(0);
    for (int i = 0; i < 5; ++i) {
        SimEvent e;
        e.cycle = 10;
        e.warpSlot = i;
        wheel.push(e);
    }
    std::vector<int> order;
    wheel.popDue(10, [&](const SimEvent &e) {
        order.push_back(e.warpSlot);
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_TRUE(wheel.empty());
}

TEST(EventWheelTest, PastDuePushFiresOnNextPop)
{
    EventWheel wheel(64);
    wheel.reset(100);
    SimEvent e;
    e.cycle = 50;  // at or before the window base
    e.warpSlot = 7;
    wheel.push(e);
    EXPECT_EQ(wheel.size(), 1u);
    int fired = -1;
    wheel.popDue(101, [&](const SimEvent &ev) { fired = ev.warpSlot; });
    EXPECT_EQ(fired, 7);
}

TEST(EventWheelTest, OverflowMigratesIntoTheRing)
{
    EventWheel wheel(64);  // span 64: cycle 5000 overflows at now=0
    wheel.reset(0);
    SimEvent far;
    far.cycle = 5000;
    far.warpSlot = 1;
    wheel.push(far);
    SimEvent near;
    near.cycle = 10;
    near.warpSlot = 2;
    wheel.push(near);
    EXPECT_EQ(wheel.nextCycle(), 10u);

    std::vector<std::uint64_t> cycles;
    wheel.popDue(10, [&](const SimEvent &e) { cycles.push_back(e.cycle); });
    EXPECT_EQ(cycles, (std::vector<std::uint64_t>{10}));
    EXPECT_EQ(wheel.nextCycle(), 5000u);
    wheel.popDue(5000, [&](const SimEvent &e) { cycles.push_back(e.cycle); });
    EXPECT_EQ(cycles, (std::vector<std::uint64_t>{10, 5000}));
    EXPECT_TRUE(wheel.empty());
}

TEST(EventWheelTest, DrainSortedOrdersByCycleThenSeq)
{
    EventWheel wheel(64);
    wheel.reset(0);
    const std::uint64_t cycles[] = {30, 10, 30, 2000, 10};
    for (int i = 0; i < 5; ++i) {
        SimEvent e;
        e.cycle = cycles[i];
        e.warpSlot = i;
        wheel.push(e);
    }
    const std::vector<SimEvent> sorted = wheel.drainSorted();
    ASSERT_EQ(sorted.size(), 5u);
    // (10,slot1) (10,slot4) (30,slot0) (30,slot2) (2000,slot3)
    EXPECT_EQ(sorted[0].warpSlot, 1);
    EXPECT_EQ(sorted[1].warpSlot, 4);
    EXPECT_EQ(sorted[2].warpSlot, 0);
    EXPECT_EQ(sorted[3].warpSlot, 2);
    EXPECT_EQ(sorted[4].warpSlot, 3);
    EXPECT_EQ(wheel.size(), 5u);  // drainSorted is non-destructive
}

TEST(FlatFifoTest, FifoOrderAndCompaction)
{
    FlatFifo<int> fifo;
    for (int i = 0; i < 200; ++i)
        fifo.push(i);
    for (int i = 0; i < 150; ++i) {
        EXPECT_EQ(fifo.front(), i);
        fifo.pop();
    }
    EXPECT_EQ(fifo.size(), 50u);
    // Snapshot iteration sees exactly the live suffix, in order.
    int expect = 150;
    for (const int v : fifo)
        EXPECT_EQ(v, expect++);
    EXPECT_EQ(expect, 200);
}

} // namespace
} // namespace rm

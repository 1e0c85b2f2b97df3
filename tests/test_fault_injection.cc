/**
 * @file
 * Deterministic fault injection (sim/fault.hh), hang forensics
 * (sim/diagnosis.hh) and the sweep runner's fault isolation and
 * checkpoint-resume machinery. These tests drive the robustness layer
 * on demand — denied acquires, delayed releases, capacity shrinks,
 * memory-latency spikes — instead of hoping a workload wedges.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.hh"
#include "core/experiment.hh"
#include "core/sweep.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "sim/diagnosis.hh"
#include "sim/fault.hh"
#include "sim/gpu.hh"
#include "workloads/suite.hh"

namespace rm {
namespace {

/** All-cycle window (practically: longer than any test run). */
constexpr std::uint64_t kForever = 1'000'000'000;

SimStats
runFaulted(const std::string &workload, const std::string &policy,
           const FaultPlan &fault, GpuConfig config = gtx480Config())
{
    const Program p = buildWorkload(workload);
    RunOptions options;
    options.gpu.fault = fault;
    return runPolicy(policy, p, config, options).stats();
}

// --- FaultPlan semantics ---------------------------------------------

TEST(FaultPlan, DefaultPlanIsInert)
{
    const FaultPlan plan;
    EXPECT_FALSE(plan.active());
    EXPECT_FALSE(plan.deniesAcquire(123, 4));
    EXPECT_FALSE(plan.delaysRelease(123));
    EXPECT_FALSE(plan.shrinkDue(123));
    EXPECT_EQ(plan.memLatencyAt(123, 400), 400);
}

TEST(FaultPlan, WindowsAreHalfOpen)
{
    FaultPlan plan;
    plan.denyAcquire = {10, 20};
    EXPECT_TRUE(plan.active());
    EXPECT_FALSE(plan.deniesAcquire(9, 0));
    EXPECT_TRUE(plan.deniesAcquire(10, 0));
    EXPECT_TRUE(plan.deniesAcquire(19, 0));
    EXPECT_FALSE(plan.deniesAcquire(20, 0));
}

TEST(FaultPlan, ProbabilisticDenialIsDeterministicAndSeeded)
{
    FaultPlan plan;
    plan.denyAcquire = {0, kForever};
    plan.denyAcquireChance = 0.5;
    plan.seed = 42;

    int denied = 0;
    for (int cycle = 0; cycle < 1000; ++cycle) {
        const bool first = plan.deniesAcquire(
            static_cast<std::uint64_t>(cycle), cycle % 48);
        const bool second = plan.deniesAcquire(
            static_cast<std::uint64_t>(cycle), cycle % 48);
        EXPECT_EQ(first, second); // pure function of (seed, cycle, slot)
        denied += first ? 1 : 0;
    }
    // Roughly half, and a different seed flips some decisions.
    EXPECT_GT(denied, 350);
    EXPECT_LT(denied, 650);

    FaultPlan other = plan;
    other.seed = 43;
    bool any_differs = false;
    for (int cycle = 0; cycle < 1000 && !any_differs; ++cycle) {
        any_differs = plan.deniesAcquire(
                          static_cast<std::uint64_t>(cycle), 0) !=
                      other.deniesAcquire(
                          static_cast<std::uint64_t>(cycle), 0);
    }
    EXPECT_TRUE(any_differs);
}

TEST(FaultPlan, DescribeNamesTheConfiguredFaults)
{
    FaultPlan plan;
    EXPECT_EQ(plan.describe(), "none");
    plan.denyAcquire = {10, 20};
    plan.memSpike = {0, 100};
    plan.memSpikeFactor = 4;
    const std::string text = plan.describe();
    EXPECT_NE(text.find("deny-acquire"), std::string::npos);
    EXPECT_NE(text.find("mem-spike"), std::string::npos);
}

// --- Injected faults driving the simulator ---------------------------

TEST(FaultInjection, DeniedAcquiresDeadlockWithForensics)
{
    FaultPlan fault;
    fault.denyAcquire = {0, kForever};

    const SimStats stats = runFaulted("BFS", "regmutex", fault);
    EXPECT_TRUE(stats.deadlocked);
    EXPECT_EQ(stats.deadlockCause, DeadlockCause::Acquire);
    EXPECT_GT(stats.faultEvents, 0u);

    ASSERT_TRUE(stats.hang);
    const HangDiagnosis &diag = *stats.hang;
    EXPECT_FALSE(diag.watchdogExpired);
    EXPECT_EQ(diag.cause, DeadlockCause::Acquire);
    EXPECT_EQ(diag.kernel, "BFS");
    EXPECT_EQ(diag.policy, "regmutex");
    EXPECT_GT(diag.blockedAcquire, 0);
    EXPECT_FALSE(diag.warps.empty());
    EXPECT_FALSE(diag.srpWaiters.empty());
    // Nobody ever acquired: no SRP holders, and every blocked warp's
    // snapshot carries a disassembled instruction and a wait age.
    EXPECT_TRUE(diag.srpHolders.empty());
    int wait_acquire = 0;
    for (const WarpSnapshot &warp : diag.warps) {
        if (warp.state != WarpState::WaitAcquire)
            continue;
        ++wait_acquire;
        EXPECT_FALSE(warp.instruction.empty());
        EXPECT_GT(warp.waitAge, 0u);
    }
    EXPECT_EQ(wait_acquire, diag.blockedAcquire);
    EXPECT_FALSE(diag.summary().empty());
}

TEST(FaultInjection, DelayedReleaseTripsTheWatchdog)
{
    // A release parked beyond the watchdog budget leaves only a
    // far-future event: handleStarvation reports Waiting, the progress
    // clock must NOT reset, and the watchdog throws with forensics.
    // (Before this layer existed the watchdog was unreachable — every
    // starvation check reset the clock.)
    GpuConfig config = gtx480Config();
    config.watchdogCycles = 20'000;
    FaultPlan fault;
    fault.delayRelease = {0, kForever};
    fault.releaseDelayCycles = kForever;

    try {
        runFaulted("BFS", "regmutex", fault, config);
        FAIL() << "expected SimulationError";
    } catch (const SimulationError &e) {
        ASSERT_TRUE(e.diagnosis());
        const HangDiagnosis &diag = *e.diagnosis();
        EXPECT_TRUE(diag.watchdogExpired);
        EXPECT_GT(diag.eventQueueDepth, 0u);
        EXPECT_GT(diag.nextEventCycle, diag.cycle);
        const std::string msg = e.what();
        EXPECT_NE(msg.find("watchdog"), std::string::npos);
        EXPECT_NE(msg.find("BFS"), std::string::npos);
    }
}

TEST(FaultInjection, PollModelNeverGrantedAcquireTripsTheWatchdog)
{
    // Under the poll model a denied acquire re-polls every 20 cycles.
    // Those retry wakes move nothing, so they must not count as
    // progress: the run has to end at the watchdog instead of
    // re-polling forever.
    GpuConfig config = gtx480Config();
    config.wakeOnRelease = false;
    config.watchdogCycles = 20'000;
    const SimStats healthy = runFaulted("BFS", "regmutex", {}, config);
    FaultPlan fault;
    fault.denyAcquire = {0, kForever};

    try {
        runFaulted("BFS", "regmutex", fault, config);
        FAIL() << "expected SimulationError";
    } catch (const SimulationError &e) {
        ASSERT_TRUE(e.diagnosis());
        const HangDiagnosis &diag = *e.diagnosis();
        EXPECT_TRUE(diag.watchdogExpired);
        // Every warp stalls at its first acquire, well before the
        // healthy run ends; the watchdog fires one budget later.
        EXPECT_LE(diag.cycle,
                  healthy.cycles +
                      static_cast<std::uint64_t>(config.watchdogCycles));
    }
}

TEST(FaultInjection, MemSpikeSlowsTheRunDeterministically)
{
    FaultPlan spike;
    spike.memSpike = {0, kForever};
    spike.memSpikeFactor = 4;

    const SimStats clean = runFaulted("BFS", "regmutex", FaultPlan{});
    const SimStats slow1 = runFaulted("BFS", "regmutex", spike);
    const SimStats slow2 = runFaulted("BFS", "regmutex", spike);

    EXPECT_FALSE(slow1.deadlocked);
    EXPECT_GT(slow1.cycles, clean.cycles);
    EXPECT_GT(slow1.faultEvents, 0u);
    // Bit-identical across repetitions: faults are pure functions of
    // the cycle, never drawn from shared RNG state.
    EXPECT_EQ(statsToJson(slow1), statsToJson(slow2));
}

TEST(FaultInjection, SrpShrinkToZeroDeadlocks)
{
    // Revoking every SRP section mid-run leaves acquires permanently
    // blocked: a declared acquire deadlock with srpSections == 0.
    FaultPlan fault;
    fault.shrinkSrpAtCycle = 100;
    fault.shrinkSrpSections = 1'000; // clamped to the section count

    const SimStats stats = runFaulted("BFS", "regmutex", fault);
    EXPECT_TRUE(stats.deadlocked);
    EXPECT_EQ(stats.deadlockCause, DeadlockCause::Acquire);
    ASSERT_TRUE(stats.hang);
    EXPECT_EQ(stats.hang->srpSections, 0);
}

TEST(FaultInjection, RfvPoolDrainDrivesTheEmergencyBreaker)
{
    // Draining RFV's physical pool starves issue; the deadlock breaker
    // must keep forcing progress (emergency spills) to completion.
    FaultPlan fault;
    fault.shrinkSrpAtCycle = 50;
    fault.shrinkSrpSections = 600;

    const SimStats clean = runFaulted("BFS", "rfv", FaultPlan{});
    const SimStats drained = runFaulted("BFS", "rfv", fault);
    EXPECT_FALSE(drained.deadlocked);
    EXPECT_GT(drained.faultEvents, 0u);
    EXPECT_GT(drained.emergencySpills, clean.emergencySpills);
    EXPECT_EQ(drained.ctasCompleted, clean.ctasCompleted);
}

TEST(FaultInjection, FaultedSmIsSelectableInFullMachineMode)
{
    const Program p = buildWorkload("BFS");
    GpuConfig config = gtx480Config();
    config.numSms = 3;

    RunOptions options;
    options.gpu.mode = GpuOptions::Mode::FullMachine;
    options.gpu.faultSm = 2;
    options.gpu.fault.denyAcquire = {0, kForever};
    const GpuResult run = runPolicy("regmutex", p, config, options).result;

    EXPECT_FALSE(run.perSm[0].deadlocked);
    EXPECT_FALSE(run.perSm[1].deadlocked);
    EXPECT_TRUE(run.perSm[2].deadlocked);
    // The aggregate reports the wedge and carries SM 2's diagnosis.
    EXPECT_TRUE(run.aggregate.deadlocked);
    EXPECT_EQ(run.aggregate.deadlockCause, DeadlockCause::Acquire);
    ASSERT_TRUE(run.aggregate.hang);
    EXPECT_EQ(run.aggregate.hang->smId, 2);
}

// --- Forensics serialization -----------------------------------------

TEST(Forensics, DiagnosisEmbedsInStatsJson)
{
    FaultPlan fault;
    fault.denyAcquire = {0, kForever};
    const SimStats stats = runFaulted("BFS", "regmutex", fault);
    ASSERT_TRUE(stats.hang);

    const JsonValue doc = parseJson(statsToJson(stats));
    EXPECT_EQ(doc.at("deadlocked").boolean, true);
    EXPECT_EQ(doc.at("deadlock_cause").string, "acquire");
    const JsonValue &hang = doc.at("hang");
    EXPECT_EQ(hang.at("cause").string, "acquire");
    EXPECT_EQ(hang.at("kernel").string, "BFS");
    EXPECT_FALSE(hang.at("watchdog_expired").boolean);
    EXPECT_GT(hang.at("warps").items.size(), 0u);
    const JsonValue &warp = hang.at("warps").items.front();
    EXPECT_EQ(warp.at("state").string, "wait-acquire");
    EXPECT_FALSE(warp.at("instruction").string.empty());
}

TEST(Forensics, StatsJsonRoundTripsThroughStatsFromJson)
{
    const SimStats original = runFaulted("BFS", "regmutex", FaultPlan{});
    const SimStats restored =
        statsFromJson(parseJson(statsToJson(original)));
    // The round trip drops only derived figures and the hang snapshot;
    // re-serializing must reproduce the document exactly.
    EXPECT_EQ(statsToJson(original), statsToJson(restored));
}

// --- Sweep fault isolation / resume ---------------------------------

std::vector<SweepCase>
cleanGrid()
{
    return sweepGrid({"BFS"}, {"baseline", "regmutex"},
                     {{"GTX480", gtx480Config()}});
}

SweepCase
faultedCell()
{
    SweepCase c;
    c.workload = "BFS";
    c.policy = "regmutex";
    c.arch = "faulted";
    c.fault.denyAcquire = {0, kForever};
    return c;
}

TEST(SweepIsolation, FaultedCellIsReportedOthersBitIdentical)
{
    // The ISSUE acceptance test: a grid with one fault-injected
    // deadlocking cell runs to completion, the faulted cell reports
    // Deadlocked with a populated diagnosis, and every other cell is
    // bit-identical to the same grid without the faulty cell.
    std::vector<SweepCase> grid = cleanGrid();
    grid.push_back(faultedCell());

    const std::vector<SweepResult> results = runSweep(grid);
    ASSERT_EQ(results.size(), 3u);

    EXPECT_EQ(results[2].status, SweepStatus::Deadlocked);
    EXPECT_FALSE(results[2].ok());
    EXPECT_FALSE(results[2].error.empty());
    ASSERT_TRUE(results[2].diagnosis);
    EXPECT_GT(results[2].diagnosis->blockedAcquire, 0);

    const std::vector<SweepResult> clean = runSweep(cleanGrid());
    for (std::size_t i = 0; i < clean.size(); ++i) {
        EXPECT_EQ(results[i].status, SweepStatus::Ok);
        EXPECT_EQ(statsToJson(results[i].stats()),
                  statsToJson(clean[i].stats()));
    }
}

TEST(SweepIsolation, BadWorkloadAndPolicyPoisonOnlyTheirCells)
{
    std::vector<SweepCase> grid = cleanGrid();
    SweepCase bad_workload;
    bad_workload.workload = "NoSuchKernel";
    bad_workload.policy = "baseline";
    grid.push_back(bad_workload);
    SweepCase bad_policy;
    bad_policy.workload = "BFS";
    bad_policy.policy = "no-such-policy";
    grid.push_back(bad_policy);

    const std::vector<SweepResult> results = runSweep(grid);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_TRUE(results[0].ok());
    EXPECT_TRUE(results[1].ok());
    EXPECT_EQ(results[2].status, SweepStatus::CompileFailed);
    EXPECT_NE(results[2].error.find("NoSuchKernel"), std::string::npos);
    EXPECT_EQ(results[3].status, SweepStatus::CompileFailed);
    EXPECT_FALSE(results[3].error.empty());
    // Compile failures never simulate, so no SM ran.
    EXPECT_TRUE(results[2].run.perSm.empty());
}

TEST(SweepIsolation, ReportSweepFailuresCountsAndPrints)
{
    std::vector<SweepCase> grid = cleanGrid();
    grid.push_back(faultedCell());
    const std::vector<SweepResult> results = runSweep(grid);

    std::ostringstream out;
    EXPECT_EQ(reportSweepFailures(results, out), 1);
    const std::string text = out.str();
    EXPECT_NE(text.find("deadlocked"), std::string::npos);
    EXPECT_NE(text.find("BFS"), std::string::npos);
    EXPECT_NE(text.find("faulted"), std::string::npos);

    std::ostringstream quiet;
    EXPECT_EQ(reportSweepFailures(runSweep(cleanGrid()), quiet), 0);
    EXPECT_TRUE(quiet.str().empty());
}

TEST(SweepCheckpoint, ResumeSkipsCompletedCellsAndRerunsFailures)
{
    const std::string path =
        ::testing::TempDir() + "rm_sweep_checkpoint_test.jsonl";
    std::remove(path.c_str());

    std::vector<SweepCase> grid = cleanGrid();
    grid.push_back(faultedCell());

    SweepOptions options;
    options.checkpointPath = path;
    const std::vector<SweepResult> first = runSweep(grid, options);
    EXPECT_TRUE(first[0].ok());
    EXPECT_TRUE(first[1].ok());
    EXPECT_FALSE(first[0].fromCheckpoint);
    EXPECT_EQ(first[2].status, SweepStatus::Deadlocked);

    // Only the Ok cells were persisted.
    std::ifstream in(path);
    ASSERT_TRUE(in);
    int lines = 0;
    for (std::string line; std::getline(in, line);)
        if (!line.empty())
            ++lines;
    EXPECT_EQ(lines, 2);

    const std::vector<SweepResult> second = runSweep(grid, options);
    EXPECT_TRUE(second[0].fromCheckpoint);
    EXPECT_TRUE(second[1].fromCheckpoint);
    EXPECT_TRUE(second[0].run.perSm.empty());
    // Restored aggregates match the originally simulated ones.
    EXPECT_EQ(statsToJson(first[0].stats()),
              statsToJson(second[0].stats()));
    EXPECT_EQ(statsToJson(first[1].stats()),
              statsToJson(second[1].stats()));
    // The failed cell was not checkpointed: it simulates again.
    EXPECT_FALSE(second[2].fromCheckpoint);
    EXPECT_EQ(second[2].status, SweepStatus::Deadlocked);

    std::remove(path.c_str());
}

TEST(SweepCheckpoint, StaleRecordIsSimulatedAgain)
{
    // A record that lacks a SimStats key (as one written before that
    // field existed does) must not restore the field as zero.
    const std::string path =
        ::testing::TempDir() + "rm_sweep_stale_checkpoint.jsonl";
    std::remove(path.c_str());
    const std::vector<SweepCase> grid =
        sweepGrid({"BFS"}, {"regmutex"}, {{"GTX480", gtx480Config()}});
    SweepOptions options;
    options.checkpointPath = path;
    const std::vector<SweepResult> fresh = runSweep(grid, options);
    ASSERT_TRUE(fresh[0].ok()) << fresh[0].error;

    std::string record;
    ASSERT_TRUE(std::getline(std::ifstream(path), record));
    const std::size_t from = record.find("\"acquire_successes\":");
    ASSERT_NE(from, std::string::npos);
    record.erase(from, record.find(',', from) + 1 - from);
    std::ofstream(path, std::ios::trunc) << record << '\n';

    const std::vector<SweepResult> second = runSweep(grid, options);
    ASSERT_TRUE(second[0].ok()) << second[0].error;
    EXPECT_FALSE(second[0].fromCheckpoint);
    EXPECT_EQ(second[0].stats(), fresh[0].stats());

    // The second load dropped the stale line from the file, so a third
    // load skips nothing: every line is a record it replays.
    std::ifstream in(path);
    std::size_t lines = 0;
    for (std::string line; std::getline(in, line);)
        if (!line.empty())
            ++lines;
    EXPECT_EQ(lines, grid.size());
    EXPECT_EQ(JsonlCheckpoint(path).replayed(), lines);
    const std::vector<SweepResult> third = runSweep(grid, options);
    for (const SweepResult &r : third) {
        EXPECT_TRUE(r.fromCheckpoint) << r.spec.workload;
        EXPECT_EQ(r.stats(), fresh[0].stats());
    }
    std::remove(path.c_str());
}

TEST(SweepCheckpoint, DistinctConfigsGetDistinctKeys)
{
    SweepCase a;
    a.workload = "BFS";
    a.policy = "regmutex";
    SweepCase b = a;
    EXPECT_EQ(sweepCaseKey(a), sweepCaseKey(b));
    b.config.registersPerSm /= 2;
    EXPECT_NE(sweepCaseKey(a), sweepCaseKey(b));
    SweepCase c = a;
    c.fault.denyAcquire = {0, kForever};
    EXPECT_NE(sweepCaseKey(a), sweepCaseKey(c));
}

} // namespace
} // namespace rm

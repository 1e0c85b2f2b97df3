/**
 * @file
 * google-benchmark microbenchmarks of the hot paths: the SRP bitmask
 * FFZ, the liveness dataflow, the full compiler pipeline, and the
 * timing simulator's cycle throughput.
 */

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/liveness.hh"
#include "common/bitmask.hh"
#include "compiler/pipeline.hh"
#include "core/experiment.hh"
#include "sim/event_wheel.hh"
#include "sim/sm.hh"
#include "workloads/suite.hh"

namespace {

void
BM_BitmaskFfz(benchmark::State &state)
{
    rm::Bitmask mask(48);
    for (int i = 0; i < 26; ++i)
        mask.set(i);
    for (auto _ : state) {
        benchmark::DoNotOptimize(mask.ffz());
    }
}
BENCHMARK(BM_BitmaskFfz);

void
BM_LivenessDataflow(benchmark::State &state)
{
    const rm::Program p = rm::buildWorkload("DWT2D");
    const rm::Cfg cfg = rm::Cfg::build(p);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rm::Liveness::compute(p, cfg));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(p.size()));
}
BENCHMARK(BM_LivenessDataflow);

void
BM_CompilerPipeline(benchmark::State &state)
{
    const rm::Program p = rm::buildWorkload("SAD");
    const rm::GpuConfig config = rm::gtx480Config();
    for (auto _ : state) {
        benchmark::DoNotOptimize(rm::compileRegMutex(p, config));
    }
}
BENCHMARK(BM_CompilerPipeline);

void
BM_TimingSimulatorBaseline(benchmark::State &state)
{
    const rm::Program p = rm::buildWorkload("BFS");
    const rm::GpuConfig config = rm::gtx480Config();
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        const rm::SimStats stats =
            rm::runPolicy("baseline", p, config).stats();
        cycles += stats.cycles;
        benchmark::DoNotOptimize(stats.cycles);
    }
    state.counters["sim_cycles_per_run"] = static_cast<double>(
        cycles / std::max<std::uint64_t>(1, state.iterations()));
}
BENCHMARK(BM_TimingSimulatorBaseline)->Unit(benchmark::kMillisecond);

void
BM_TimingSimulatorRegMutex(benchmark::State &state)
{
    const rm::Program p = rm::buildWorkload("BFS");
    const rm::GpuConfig config = rm::gtx480Config();
    for (auto _ : state) {
        benchmark::DoNotOptimize(rm::runPolicy("regmutex", p, config).stats());
    }
}
BENCHMARK(BM_TimingSimulatorRegMutex)->Unit(benchmark::kMillisecond);

void
BM_TimingSimulatorRfv(benchmark::State &state)
{
    // RFV gates issue on the physical pool (canIssue per Ready
    // candidate per cycle), so it exercises the scheduler's policy-
    // gate path the baseline and RegMutex cells skip.
    const rm::Program p = rm::buildWorkload("BFS");
    const rm::GpuConfig config = rm::gtx480Config();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            rm::runPolicy("rfv", p, config).stats().cycles);
    }
}
BENCHMARK(BM_TimingSimulatorRfv)->Unit(benchmark::kMillisecond);

void
BM_EventWheelPushPop(benchmark::State &state)
{
    // The steady-state engine pattern: a batch of latency events
    // pushed per issue burst, drained as their cycles come due. 8
    // events per cycle step at ALU/global latencies exercises both
    // the near buckets and the occupancy-bitmap scan.
    rm::EventWheel wheel(2048);
    std::uint64_t now = 0;
    for (auto _ : state) {
        for (int i = 0; i < 8; ++i) {
            rm::SimEvent e;
            e.cycle = now + (i % 2 == 0 ? 4 : 400);
            e.warpSlot = i;
            wheel.push(e);
        }
        now += 4;
        std::uint64_t drained = 0;
        wheel.popDue(now, [&](const rm::SimEvent &) { ++drained; });
        benchmark::DoNotOptimize(drained);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_EventWheelPushPop);

void
BM_EventWheelNextCycleScan(benchmark::State &state)
{
    // Skip-ahead cost model: one far-out event, repeated nextCycle()
    // queries scanning the occupancy bitmap across the whole ring.
    rm::EventWheel wheel(2048);
    wheel.reset(0);
    rm::SimEvent e;
    e.cycle = 1900;
    wheel.push(e);
    for (auto _ : state) {
        benchmark::DoNotOptimize(wheel.nextCycle());
    }
}
BENCHMARK(BM_EventWheelNextCycleScan);

void
BM_TimingSimulatorSkipAheadOff(benchmark::State &state)
{
    // The same cell as BM_TimingSimulatorBaseline with the skip-ahead
    // fast path disabled: the spread between the two is the measured
    // value of the idle-cycle jump (stats are bit-identical either
    // way; tests/test_engine_equivalence.cc holds that line).
    const rm::Program p = rm::buildWorkload("BFS");
    const rm::GpuConfig config = rm::gtx480Config();
    rm::Sm::setSkipAhead(false);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            rm::runPolicy("baseline", p, config).stats().cycles);
    }
    rm::Sm::setSkipAhead(true);
}
BENCHMARK(BM_TimingSimulatorSkipAheadOff)->Unit(benchmark::kMillisecond);

void
BM_WorkloadGenerator(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(rm::buildWorkload("ParticleFilter"));
    }
}
BENCHMARK(BM_WorkloadGenerator);

} // namespace

/**
 * Custom main instead of BENCHMARK_MAIN(): `--json <path>` expands to
 * google-benchmark's `--benchmark_out=<path> --benchmark_out_format=
 * json` so rm-bench (and scripts/run_all_benches.sh) can fold the
 * micro numbers into the perf trajectory with one uniform flag. All
 * other arguments pass through to google-benchmark untouched.
 */
int
main(int argc, char **argv)
{
    std::vector<std::string> args;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            if (i + 1 >= argc) {
                std::cerr << "micro_hotpaths: --json needs a path\n";
                return 2;
            }
            args.push_back(std::string("--benchmark_out=") + argv[++i]);
            args.push_back("--benchmark_out_format=json");
        } else {
            args.push_back(arg);
        }
    }
    std::vector<char *> argp;
    argp.reserve(args.size());
    for (std::string &arg : args)
        argp.push_back(arg.data());
    int adjusted = static_cast<int>(argp.size());
    benchmark::Initialize(&adjusted, argp.data());
    if (benchmark::ReportUnrecognizedArguments(adjusted, argp.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

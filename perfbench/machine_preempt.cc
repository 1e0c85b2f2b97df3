/**
 * @file
 * Workload `machine-preempt`: long full-machine runs that get
 * preempted and resumed. BFS, SAD, MRI-Q and LavaMD under baseline and
 * regmutex run one at a time on all 15 SMs of the GTX480 model with
 * per-SM parallelism and per-SM MetricsRegistry + Sampler sinks. Each
 * run takes periodic snapshots into a sink that serializes them, is
 * stopped by a cycle budget at a seed-chosen cycle, and resumes from
 * the deserialized final snapshot to completion. The only workload on
 * the controlled engine path, the snapshot codec and per-SM
 * parallelFor; its final stats must equal the uninterrupted run's.
 */

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "common/rng.hh"
#include "obs/metrics.hh"
#include "obs/sampler.hh"
#include "sim/snapshot.hh"
#include "workloads.hh"
#include "workloads/suite.hh"

namespace perfbench {

namespace {

const char *const kKernels[] = {"BFS", "SAD", "MRI-Q", "LavaMD"};
const char *const kPolicies[] = {"baseline", "regmutex"};

/** Periodic captures a run takes before its preemption point. */
constexpr std::uint64_t kPeriodicCaptures = 2;
/** Sampler period of the per-SM sinks, simulated cycles. */
constexpr std::uint64_t kSampleInterval = 4096;

std::string
smKey(const std::string &key, int sm)
{
    std::ostringstream out;
    out << key << "/sm" << sm;
    return out.str();
}

/** Per-SM observability sinks for one engine run. */
struct SmSinks
{
    std::vector<std::unique_ptr<rm::MetricsRegistry>> registries;
    std::vector<std::unique_ptr<rm::Sampler>> samplers;

    explicit SmSinks(int sms)
    {
        for (int i = 0; i < sms; ++i) {
            registries.push_back(std::make_unique<rm::MetricsRegistry>());
            samplers.push_back(std::make_unique<rm::Sampler>(
                *registries.back(), kSampleInterval));
        }
    }

    std::function<rm::ObsSinks(int)> forSm()
    {
        return [this](int sm) {
            const auto i = static_cast<std::size_t>(sm);
            return rm::ObsSinks{nullptr, registries.at(i).get(),
                                samplers.at(i).get()};
        };
    }
};

rm::GpuOptions
fullMachine(int threads)
{
    rm::GpuOptions options;
    options.mode = rm::GpuOptions::Mode::FullMachine;
    options.threads = threads;
    return options;
}

/** Compare a finished engine result with the stored expectation. */
bool
matchesExpected(const MachineCase &mc, const rm::GpuResult &result,
                std::string *why)
{
    if (!result.completed()) {
        *why = "preempted unexpectedly";
        return false;
    }
    if (result.perSm.size() != mc.expectedPerSm.size()) {
        *why = "ran " + std::to_string(result.perSm.size()) + " SMs";
        return false;
    }
    if (!statsMatch(result.aggregate, mc.expected, why))
        return false;
    for (std::size_t i = 0; i < result.perSm.size(); ++i)
        if (!statsMatch(result.perSm[i], mc.expectedPerSm[i], why)) {
            *why = "SM " + std::to_string(i) + ": " + *why;
            return false;
        }
    return true;
}

} // namespace

std::vector<MachineCase>
machineCases(const std::string &expected_path)
{
    const std::map<std::string, rm::SimStats> expected =
        expected_path.empty() ? std::map<std::string, rm::SimStats>{}
                              : loadStatsMap(expected_path, "runs");
    const int sms = rm::gtx480Config().numSms;
    std::vector<MachineCase> cases;
    for (const char *kernel : kKernels) {
        const rm::Program program = rm::buildWorkload(kernel);
        for (const char *policy : kPolicies) {
            MachineCase mc;
            mc.workload = kernel;
            mc.policy = policy;
            mc.key = mc.workload + "|" + mc.policy;
            mc.program = program;
            mc.spec = &rm::PolicyRegistry::instance().at(policy);
            if (!expected.empty()) {
                mc.expected = expected.at(mc.key);
                for (int sm = 0; sm < sms; ++sm)
                    mc.expectedPerSm.push_back(expected.at(smKey(mc.key, sm)));
            }
            cases.push_back(std::move(mc));
        }
    }
    return cases;
}

std::uint64_t
preemptCycle(const MachineCase &mc, std::uint64_t seed, int op)
{
    // Anywhere in the middle half of the slowest SM's run.
    const std::uint64_t cycles = mc.expected.cycles;
    rm::Rng rng(deriveSeed(seed, kPreemptRole, static_cast<std::uint64_t>(op)));
    return static_cast<std::uint64_t>(rng.uniformInt(
        static_cast<std::int64_t>(cycles / 4),
        static_cast<std::int64_t>(3 * cycles / 4)));
}

namespace {

/** Both legs of one run, filling @p out; may throw. */
void
runLegs(const MachineCase &mc, std::uint64_t preempt_cycle,
        bool periodic_snapshots, int threads, Tracer *tracer, int op,
        MachineOutcome &out)
{
    const rm::GpuConfig config = rm::gtx480Config();
    Scope run_span(tracer, "op/run", -1, op);

    rm::PolicyCompile compiled;
    {
        Scope span(tracer, "compiler/PolicySpec::compile", run_span.spanId(),
                   op);
        compiled = mc.spec->compile(mc.program, config, {});
    }

    // Leg 1: periodic snapshots, stopped by the cycle budget.
    std::string last_snapshot;
    int leg_span = -1;
    {
        SmSinks sinks(config.numSms);
        rm::GpuOptions options = fullMachine(threads);
        options.sinksForSm = sinks.forSm();
        options.control.maxCycles = preempt_cycle;
        if (periodic_snapshots)
            options.snapshotEvery =
                (preempt_cycle + kPeriodicCaptures) / (kPeriodicCaptures + 1);
        options.snapshotSink = [&](const rm::GpuSnapshot &snapshot) {
            Scope span(tracer, "sim/GpuSnapshot::serialize", leg_span, op);
            last_snapshot = snapshot.serialize();
            ++out.captures;
        };
        Scope span(tracer, "sim/simulateGpu", run_span.spanId(), op);
        leg_span = span.spanId();
        const rm::GpuResult leg = rm::simulateGpu(
            config, compiled.program,
            timedAllocator(*mc.spec, tracer, leg_span, op), options);
        if (leg.completed() ||
            leg.preemptReason != rm::PreemptReason::CycleLimit ||
            last_snapshot.empty()) {
            out.ok = false;
            out.why = "not preempted at cycle " + std::to_string(preempt_cycle);
        }
    }
    out.finalSnapshotBytes = last_snapshot.size();

    // Leg 2: resume from the decoded bytes and run to completion.
    if (out.ok) {
        std::shared_ptr<const rm::GpuSnapshot> resume;
        {
            Scope span(tracer, "sim/GpuSnapshot::deserialize",
                       run_span.spanId(), op);
            resume = std::make_shared<rm::GpuSnapshot>(
                rm::GpuSnapshot::deserialize(last_snapshot));
        }
        SmSinks sinks(config.numSms);
        rm::GpuOptions options = fullMachine(threads);
        options.sinksForSm = sinks.forSm();
        options.resume = resume;
        rm::GpuResult result;
        {
            Scope span(tracer, "sim/simulateGpu", run_span.spanId(), op);
            result = rm::simulateGpu(
                config, compiled.program,
                timedAllocator(*mc.spec, tracer, span.spanId(), op), options);
        }
        Scope span(tracer, "obs/statsJsonRoundTrip", run_span.spanId(), op);
        out.ok = matchesExpected(mc, result, &out.why);
        out.instructions = result.aggregate.instructions;
    }
}

} // namespace

MachineOutcome
runMachine(const MachineCase &mc, std::uint64_t preempt_cycle,
           bool periodic_snapshots, int threads, Tracer *tracer, int op)
{
    MachineOutcome out;
    const std::int64_t start = nowNs();
    try {
        runLegs(mc, preempt_cycle, periodic_snapshots, threads, tracer, op,
                out);
    } catch (const std::exception &e) {
        out.ok = false;
        out.why = std::string("threw: ") + e.what();
    }
    out.seconds = secondsSince(start);
    return out;
}

namespace {

/** One uninterrupted run under the given engine options, checked. */
struct PlainRun
{
    bool ok = false;
    std::string why;
    double seconds = 0.0;
    rm::GpuResult result;
};

PlainRun
plainRun(const MachineCase &mc, const rm::PolicyCompile &compiled,
         rm::GpuOptions options, bool sinks)
{
    const rm::GpuConfig config = rm::gtx480Config();
    SmSinks sm_sinks(config.numSms);
    if (sinks)
        options.sinksForSm = sm_sinks.forSm();
    PlainRun run;
    const std::int64_t start = nowNs();
    try {
        run.result = rm::simulateGpu(config, compiled.program,
                                     mc.spec->allocator, options);
        run.seconds = secondsSince(start);
        run.ok = matchesExpected(mc, run.result, &run.why);
    } catch (const std::exception &e) {
        run.seconds = secondsSince(start);
        run.why = std::string("threw: ") + e.what();
    }
    return run;
}

} // namespace

RunReport
runMachinePreempt(const RunContext &ctx)
{
    RunReport report;
    const std::vector<MachineCase> cases =
        machineCases(ctx.expectedDir + "/machine_preempt.json");

    int op = 0;
    auto run = [&](const MachineCase &mc, Tracer *tracer) {
        const MachineOutcome o =
            runMachine(mc, preemptCycle(mc, ctx.seed, op), true, ctx.threads,
                       tracer, op);
        ++op;
        report.check(o.ok, mc.key + ": " + o.why);
        return o;
    };

    const bool tracing = closedLoop(
        ctx, report,
        [&] {
            // One run per kernel, alternating the policy, so every kernel
            // and both allocators have run once before timing starts.
            for (std::size_t i = 0; i < cases.size(); i += 2)
                run(cases[i + (i / 2) % 2], nullptr);
            PassShape shape{static_cast<std::int64_t>(cases.size()), 0};
            for (const MachineCase &mc : cases)
                shape.insts += mc.expected.instructions;
            return shape;
        },
        [&] {
            TimedPass p;
            for (const MachineCase &mc : cases) {
                const double seconds = run(mc, nullptr).seconds;
                p.seconds += seconds;
                p.latencies.push_back(seconds);
            }
            return p;
        },
        "run");
    if (!tracing)
        return report;

    // Traced run. (1) Each run untraced then traced, for half the budget.
    const std::int64_t traced_start = nowNs();
    Tracer tracer;
    double plain_s = 0, traced_s = 0, snapshot_bytes = 0;
    int finals = 0;
    while (secondsSince(traced_start) < ctx.seconds / 2 || finals == 0) {
        for (const MachineCase &mc : cases) {
            plain_s += run(mc, nullptr).seconds;
            const MachineOutcome o = run(mc, &tracer);
            traced_s += o.seconds;
            snapshot_bytes += static_cast<double>(o.finalSnapshotBytes);
            ++finals;
        }
    }

    // (2) Engine-path comparisons on uninterrupted runs, each checked
    // against the expected output and repeated three times, interleaved,
    // so host drift hits every variant alike: the streaming path at
    // nproc threads and at one thread, with per-SM sinks, and under an
    // inert cycle budget. Then the preempted run with and without its
    // periodic snapshots.
    double stream_s = 0, serial_s = 0, sinks_s = 0, inert_s = 0;
    std::vector<SimCost> costs;
    double imbalance = 0;
    for (int rep = 0; rep < 3; ++rep) {
        for (const MachineCase &mc : cases) {
            const rm::PolicyCompile compiled =
                mc.spec->compile(mc.program, rm::gtx480Config(), {});
            const PlainRun stream =
                plainRun(mc, compiled, fullMachine(ctx.threads), false);
            const PlainRun serial =
                plainRun(mc, compiled, fullMachine(1), false);
            const PlainRun sinks =
                plainRun(mc, compiled, fullMachine(ctx.threads), true);
            rm::GpuOptions inert = fullMachine(ctx.threads);
            inert.control.maxCycles =
                std::numeric_limits<std::uint64_t>::max();
            const PlainRun budget = plainRun(mc, compiled, inert, false);
            for (const PlainRun *r : {&stream, &serial, &sinks, &budget})
                report.check(r->ok, mc.key + " (uninterrupted): " + r->why);
            stream_s += stream.seconds;
            serial_s += serial.seconds;
            sinks_s += sinks.seconds;
            inert_s += budget.seconds;

            double sm_cycles = 0, max_cycles = 0;
            for (const rm::SimStats &s : serial.result.perSm) {
                sm_cycles += static_cast<double>(s.cycles);
                max_cycles =
                    std::max(max_cycles, static_cast<double>(s.cycles));
            }
            if (rep == 0)
                imbalance += max_cycles *
                             static_cast<double>(serial.result.numSms()) /
                             sm_cycles;
            costs.push_back({mc.policy, serial.seconds * 1e9, sm_cycles,
                             serial.result.aggregate});
        }
    }
    double with_snap_s = 0, without_snap_s = 0, periodic = 0;
    for (const MachineCase &mc : cases) {
        const std::uint64_t cycle = preemptCycle(mc, ctx.seed, op);
        const MachineOutcome with =
            runMachine(mc, cycle, true, ctx.threads, nullptr, op);
        const MachineOutcome without =
            runMachine(mc, cycle, false, ctx.threads, nullptr, op);
        report.check(with.ok, mc.key + ": " + with.why);
        report.check(without.ok, mc.key + " (no periodic snapshots): " +
                                     without.why);
        with_snap_s += with.seconds;
        without_snap_s += without.seconds;
        periodic += with.captures - without.captures;
    }

    const std::vector<Span> spans = tracer.spans();
    const auto totals = totalsByName(spans);
    std::int64_t static_insts = 0, added = 0;
    int rmx = 0, enabled = 0;
    for (const MachineCase &mc : cases) {
        const rm::PolicyCompile compiled =
            mc.spec->compile(mc.program, rm::gtx480Config(), {});
        added += static_cast<std::int64_t>(compiled.program.size()) -
                 static_cast<std::int64_t>(mc.program.size());
        if (mc.policy == "baseline")
            static_insts += static_cast<std::int64_t>(mc.program.size());
        if (compiled.compile) {
            ++rmx;
            enabled += compiled.compile->enabled() ? 1 : 0;
        }
    }

    // workloads.build_ms: time buildWorkload the way set-up calls it.
    std::vector<double> build_ms;
    for (const char *kernel : kKernels) {
        const std::int64_t t0 = nowNs();
        const rm::Program program = rm::buildWorkload(kernel);
        build_ms.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
        if (program.size() == 0)
            throw std::runtime_error("empty kernel " + std::string(kernel));
    }

    const double n = static_cast<double>(cases.size());
    Layers layers;
    addSimCosts(layers, costs);
    layers.buildMs = median(build_ms);
    layers.staticInsts = static_cast<double>(static_insts);
    layers.compileMs = meanSelfMs(totals, "compiler/PolicySpec::compile");
    layers.addedInsts = static_cast<double>(added);
    layers.enabledFrac = rmx == 0 ? 0.0 : static_cast<double>(enabled) / rmx;
    layers.regmutexPrepareMs =
        meanSelfMs(totals, "regmutex/PolicySpec::allocator");
    layers.baselinesPrepareMs =
        meanSelfMs(totals, "baselines/PolicySpec::allocator");
    layers.runMs = meanSelfMs(totals, "sim/simulateGpu");
    std::tie(layers.gmemInitMs, layers.gmemDigestMs) = globalMemoryCosts();
    layers.controlledOverheadFrac = inert_s / stream_s - 1.0;
    layers.snapshotCaptureMs =
        periodic == 0 ? 0.0 : (with_snap_s - without_snap_s) * 1e3 / periodic;
    layers.snapshotEncodeMs = meanSelfMs(totals, "sim/GpuSnapshot::serialize");
    layers.snapshotDecodeMs =
        meanSelfMs(totals, "sim/GpuSnapshot::deserialize");
    layers.snapshotMb = snapshot_bytes / finals / (1024.0 * 1024.0);
    layers.smImbalance = imbalance / n;
    layers.smSpeedup = serial_s / stream_s;
    // Each check round-trips the aggregate and every SM's stats.
    layers.statsJsonUs = meanSelfMs(totals, "obs/statsJsonRoundTrip") * 1e3 /
                         (rm::gtx480Config().numSms + 1);
    layers.sinkOverheadFrac = sinks_s / stream_s - 1.0;
    layers.traceOverheadFrac = traced_s / plain_s - 1.0;
    addLayers(report, layers);

    if (!ctx.spansPath.empty())
        tracer.write(ctx.spansPath);
    return report;
}

} // namespace perfbench

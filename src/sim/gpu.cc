#include "sim/gpu.hh"

#include <algorithm>
#include <utility>

#include "common/errors.hh"
#include "common/thread_pool.hh"
#include "sim/memory.hh"
#include "sim/sm.hh"

namespace rm {

int
ctasForSm(const GpuConfig &config, int grid_ctas, int sm_id)
{
    fatalIf(config.numSms <= 0, "ctasForSm: config has ", config.numSms,
            " SMs");
    fatalIf(sm_id < 0 || sm_id >= config.numSms, "ctasForSm: SM id ",
            sm_id, " outside [0, ", config.numSms, ")");
    const int share = grid_ctas / config.numSms;
    const int remainder = grid_ctas % config.numSms;
    return share + (sm_id < remainder ? 1 : 0);
}

int
ctasPerSmShare(const GpuConfig &config, const Program &program)
{
    return ctasForSm(config, program.info.gridCtas, 0);
}

SimStats
mergeSmStats(const std::vector<SimStats> &per_sm)
{
    fatalIf(per_sm.empty(), "mergeSmStats: no per-SM statistics");

    // Identity and per-SM capacity figures are uniform across SMs;
    // take them from SM 0 (which always has the largest grid share).
    SimStats agg = per_sm.front();

    // Machine time is the slowest SM; avgResidentWarps becomes the
    // cycle-weighted mean so idle (zero-share) SMs do not dilute it.
    agg.cycles = 0;
    agg.instructions = 0;
    agg.ctasCompleted = 0;
    for (const SummedCounter &row : kSummedCounters)
        agg.*row.member = 0;
    agg.deadlocked = false;
    agg.deadlockCause = DeadlockCause::None;
    agg.hang = nullptr;

    double resident_integral = 0.0;
    std::uint64_t total_cycles = 0;
    for (const SimStats &sm : per_sm) {
        agg.cycles = std::max(agg.cycles, sm.cycles);
        agg.instructions += sm.instructions;
        agg.ctasCompleted += sm.ctasCompleted;
        for (const SummedCounter &row : kSummedCounters)
            agg.*row.member += sm.*row.member;
        agg.deadlocked = agg.deadlocked || sm.deadlocked;
        // First deadlocked SM (in id order) provides the machine-level
        // cause and forensics snapshot.
        if (agg.deadlockCause == DeadlockCause::None)
            agg.deadlockCause = sm.deadlockCause;
        if (!agg.hang)
            agg.hang = sm.hang;
        resident_integral += sm.avgResidentWarps *
                             static_cast<double>(sm.cycles);
        total_cycles += sm.cycles;
    }
    agg.avgResidentWarps =
        total_cycles == 0 ? 0.0
                          : resident_integral /
                                static_cast<double>(total_cycles);
    return agg;
}

Gpu::Gpu(const GpuConfig &gpu_config, const Program &kernel,
         AllocatorFactory allocator_factory, GpuOptions run_options)
    : config(gpu_config),
      program(kernel),
      factory(std::move(allocator_factory)),
      options(std::move(run_options))
{
    fatalIf(!factory, "Gpu: no allocator factory");
}

namespace {

/**
 * One SM's simulation state across the run legs. The Sm holds
 * references into `prepared` and `gmem`, so the cell owns all three;
 * they are built in the SM's first leg and freed by finish(), leaving
 * only the final statistics.
 */
struct SmCell
{
    int ctas = 0;
    bool finished = false;
    SmRunOutcome outcome;
    /** Final stats once finished (in this run or in the resume
     *  snapshot). Live cells read Sm::currentStats() instead. */
    SimStats finishedStats;
    /** Cycles this run's legs stepped (Sm::steppedCycles). */
    std::uint64_t stepped = 0;
    PreparedAllocator prepared;
    std::unique_ptr<GlobalMemory> gmem;
    std::unique_ptr<Sm> sm;

    const SimStats &stats() const
    {
        return sm ? sm->currentStats() : finishedStats;
    }

    /** Keep the final stats and free the SM, its memory partition and
     *  its allocator (in that order: the Sm references the others). */
    void finish()
    {
        finishedStats = sm->currentStats();
        sm.reset();
        gmem.reset();
        prepared = PreparedAllocator{};
        finished = true;
    }
};

} // namespace

GpuResult
Gpu::run()
{
    program.verify();
    // The engine's one-word envelope (sim/config.hh), checked before
    // any allocator is prepared.
    fatalIf(config.maxWarpsPerSm > kEngineWordBits, "Gpu: config has ",
            config.maxWarpsPerSm, " warp slots per SM; the engine "
            "supports at most ", kEngineWordBits);
    fatalIf(program.info.numRegs > kEngineWordBits, "Gpu: kernel '",
            program.info.name, "' uses ", program.info.numRegs,
            " registers per thread; the engine supports at most ",
            kEngineWordBits);

    const bool full = options.mode == GpuOptions::Mode::FullMachine;
    const int sms = full ? config.numSms : 1;
    fatalIf(sms <= 0, "Gpu: config has ", sms, " SMs");
    const std::uint64_t digest = gpuConfigDigest(config);
    const GpuSnapshot *resume = options.resume.get();

    if (resume != nullptr) {
        if (resume->kernel != program.info.name)
            throw SnapshotError(
                "resume snapshot is for kernel '" + resume->kernel +
                "', engine runs '" + program.info.name + "'");
        if (resume->mode != static_cast<std::uint8_t>(options.mode))
            throw SnapshotError(
                "resume snapshot engine mode does not match");
        if (resume->numSms != sms ||
            static_cast<int>(resume->sms.size()) != sms)
            throw SnapshotError(
                "resume snapshot has " +
                std::to_string(resume->sms.size()) +
                " SMs, engine runs " + std::to_string(sms));
        if (resume->configDigest != digest)
            throw SnapshotError(
                "resume snapshot was captured on a different "
                "architecture (config digest mismatch)");
    }

    std::vector<SmCell> cells(static_cast<std::size_t>(sms));
    for (int i = 0; i < sms; ++i) {
        SmCell &cell = cells[static_cast<std::size_t>(i)];
        cell.ctas = full ? ctasForSm(config, program.info.gridCtas, i)
                         : ctasPerSmShare(config, program);
        if (resume != nullptr) {
            const GpuSnapshot::SmEntry &entry =
                resume->sms[static_cast<std::size_t>(i)];
            if (entry.smId != i || entry.ctas != cell.ctas)
                throw SnapshotError(
                    "resume snapshot SM entry " + std::to_string(i) +
                    " does not match the engine's grid distribution");
            if (entry.finished) {
                cell.finished = true;
                cell.finishedStats = entry.stats;
            }
        }
    }

    // An SM's first leg builds it: allocator prepare() (liveness
    // analysis), its memory partition and the Sm, restored from the
    // resume snapshot when there is one.
    auto build = [&](int sm_id, SmCell &cell) {
        cell.prepared = factory(config, program);
        fatalIf(!cell.prepared.allocator,
                "Gpu: allocator factory returned null");
        fatalIf(cell.prepared.allocator->maxCtasByRegisters() <= 0,
                "Gpu: kernel '", program.info.name,
                "' does not fit the register file under policy '",
                cell.prepared.allocator->name(), "'");
        const ObsSinks sinks =
            options.sinksForSm ? options.sinksForSm(sm_id)
                               : (sm_id == 0 ? options.obs : ObsSinks{});
        // Each SM owns its memory partition: seed memSeed + smId keeps
        // SM 0 identical to the single-SM model while the other slices
        // see distinct (deterministic) data.
        cell.gmem = std::make_unique<GlobalMemory>(
            options.log2MemWords,
            options.memSeed + static_cast<std::uint64_t>(sm_id));
        // The fault plan applies to the selected SM only (-1: all
        // SMs); the other SMs get the inert default plan.
        const bool faulted =
            options.fault.active() &&
            (options.faultSm < 0 || options.faultSm == sm_id);
        cell.sm = std::make_unique<Sm>(
            config, program, *cell.prepared.allocator, cell.ctas,
            *cell.gmem, std::move(cell.prepared.mapper), sinks.trace,
            sinks.metrics, sinks.sampler, sm_id,
            faulted ? options.fault : FaultPlan{});
        if (resume != nullptr) {
            SnapshotReader r(
                resume->sms[static_cast<std::size_t>(sm_id)].state);
            cell.sm->restoreState(r);
            if (!r.atEnd())
                throw SnapshotError("trailing bytes after SM " +
                                    std::to_string(sm_id) +
                                    " state in resume snapshot");
        }
    };

    // Serialize the whole machine. Runs between legs on the engine
    // thread, so no cell is being simulated concurrently.
    auto capture = [&]() {
        GpuSnapshot snap;
        snap.kernel = program.info.name;
        // A resume where every SM already finished never constructs an
        // allocator; carry the policy name through from the snapshot.
        snap.policy = resume != nullptr ? resume->policy : std::string();
        snap.mode = static_cast<std::uint8_t>(options.mode);
        snap.numSms = sms;
        snap.configDigest = digest;
        snap.sms.resize(static_cast<std::size_t>(sms));
        for (int i = 0; i < sms; ++i) {
            SmCell &cell = cells[static_cast<std::size_t>(i)];
            GpuSnapshot::SmEntry &entry =
                snap.sms[static_cast<std::size_t>(i)];
            entry.smId = i;
            entry.ctas = cell.ctas;
            entry.finished = cell.finished;
            entry.stats = cell.stats();
            if (!cell.finished) {
                SnapshotWriter w;
                cell.sm->saveState(w);
                entry.state = w.take();
                snap.policy = cell.prepared.allocator->name();
            }
        }
        return snap;
    };

    GpuResult result;
    result.perSm.resize(static_cast<std::size_t>(sms));

    while (true) {
        // One leg per unfinished SM. SMs are fully independent, so the
        // legs need not stay in lockstep: each runs until its own next
        // snapshot boundary, the global cycle budget, or completion.
        parallelFor(
            sms,
            [&](int sm_id) {
                SmCell &cell = cells[static_cast<std::size_t>(sm_id)];
                if (cell.finished)
                    return;
                if (!cell.sm)
                    build(sm_id, cell);
                RunControl leg = options.control;
                if (options.snapshotEvery > 0) {
                    const std::uint64_t target =
                        cell.sm->currentCycle() + options.snapshotEvery;
                    leg.maxCycles = leg.maxCycles == 0
                                        ? target
                                        : std::min(leg.maxCycles, target);
                }
                cell.outcome = cell.sm->runControlled(leg);
                cell.stepped = cell.sm->steppedCycles();
                if (!cell.outcome.preempted)
                    cell.finish();
            },
            options.threads);

        bool all_done = true;
        bool global_stop = false;
        bool any_progressable = false;
        PreemptReason reason = PreemptReason::None;
        for (SmCell &cell : cells) {
            if (cell.finished)
                continue;
            all_done = false;
            const PreemptReason r = cell.outcome.reason;
            if (r == PreemptReason::WallDeadline) {
                global_stop = true;
                reason = r;
            }
            // A leg that hit its per-leg cycle cap short of the global
            // budget is just a snapshot boundary, not a preemption.
            const bool at_global_limit =
                options.control.maxCycles > 0 &&
                cell.sm->currentCycle() >= options.control.maxCycles;
            if (!at_global_limit)
                any_progressable = true;
            else if (reason == PreemptReason::None)
                reason = PreemptReason::CycleLimit;
        }
        if (all_done)
            break;
        if (!global_stop && any_progressable) {
            if (options.snapshotEvery > 0 && options.snapshotSink)
                options.snapshotSink(capture());
            continue;
        }
        result.status = GpuResult::Status::Preempted;
        result.preemptReason =
            reason != PreemptReason::None ? reason
                                          : PreemptReason::CycleLimit;
        auto snap = std::make_shared<GpuSnapshot>(capture());
        if (options.snapshotSink)
            options.snapshotSink(*snap);
        result.snapshot = std::move(snap);
        break;
    }

    for (int i = 0; i < sms; ++i) {
        const SmCell &cell = cells[static_cast<std::size_t>(i)];
        result.perSm[static_cast<std::size_t>(i)] = cell.stats();
        result.steppedCycles += cell.stepped;
    }
    result.aggregate = mergeSmStats(result.perSm);
    return result;
}

GpuResult
simulateGpu(const GpuConfig &config, const Program &program,
            const AllocatorFactory &factory, GpuOptions options)
{
    return Gpu(config, program, factory, std::move(options)).run();
}

} // namespace rm

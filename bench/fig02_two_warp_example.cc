/**
 * @file
 * Reproduces Fig. 2: the paper's illustrative example of two warps
 * executing identical code on a machine with 48 registers per thread,
 * each demanding 31. Without RegMutex the combined demand (62) exceeds
 * the hardware, so the warps serialize completely; with a 16/16
 * base/extended split plus a 16-register shared pool, the release-state
 * portions overlap and only the acquire-state portions serialize.
 */

#include <iostream>

#include "common/table.hh"
#include "core/experiment.hh"
#include "obs/report.hh"
#include "sim/trace.hh"
#include "workloads/generator.hh"

int
main(int argc, char **argv)
{
    using namespace rm;
    BenchReport report("fig02_two_warp_example", argc, argv);

    // The figure's machine: 48 registers per thread of hardware, two
    // warp slots, one warp per CTA.
    GpuConfig config = gtx480Config();
    config.numSms = 1;
    config.maxWarpsPerSm = 2;
    config.maxCtasPerSm = 2;
    config.maxThreadsPerSm = 64;
    config.registersPerSm = 48 * 32;  // 48 regs/thread x one warp width
    config.sharedMemPerSm = 4096;

    // A kernel needing 31 registers at its burst peak, with a long
    // low-pressure memory phase (the figure's release-state stretch).
    KernelSpec spec;
    spec.name = "fig2";
    spec.regs = 31;
    spec.ctaThreads = 32;  // one warp per CTA
    spec.gridCtasPerSm = 2;
    spec.persistent = 6;
    spec.seed = 2;
    spec.phases = {
        {.trips = 3, .peak = 31, .loads = 3, .memTrips = 3,
         .aluPerTemp = 1},
    };
    const Program p = buildKernel(spec, 1);

    const SimStats base = runPolicy("baseline", p, config).stats();

    RunOptions options;
    options.compile.forcedEs = 16;  // the figure's 16/16 split
    // The figure's timeline comes from this run's issue-stage trace.
    IssueTrace timeline(1 << 16);
    options.gpu.obs.trace = &timeline;
    const PolicyRun rmx = runPolicy("regmutex", p, config, options);
    const EsSelection &split = rmx.compile.compile->selection;

    report.addRun(base, {{"policy", "baseline"}});
    report.addRun(rmx.stats(), {{"policy", "regmutex"}},
                  {{"cycle_reduction", cycleReduction(base, rmx.stats())},
                   {"bs", split.bs},
                   {"es", split.es},
                   {"srp_sections", split.srpSections}});

    Table table({"configuration", "resident warps", "cycles",
                 "overlap"});
    {
        Row row;
        row << "baseline (31 regs exclusive)"
            << base.theoreticalWarps
            << static_cast<unsigned long long>(base.cycles)
            << (base.theoreticalWarps > 1 ? "yes" : "none");
        table.addRow(row.take());
    }
    {
        Row row;
        row << "RegMutex (|Bs|=16, |Es|=16, SRP=16)"
            << rmx.stats().theoreticalWarps
            << static_cast<unsigned long long>(rmx.stats().cycles)
            << "release-state portions";
        table.addRow(row.take());
    }

    std::cout << "Fig. 2: two warps, 48 hardware registers per "
                 "thread, 31 architected registers each\n\n"
              << table.toText() << "\n"
              << "RegMutex split chosen: |Bs| = "
              << split.bs << ", |Es| = " << split.es
              << ", SRP sections = " << split.srpSections << "\n"
              << "acquires executed: " << rmx.stats().acquireAttempts
              << ", successful: " << rmx.stats().acquireSuccesses
              << ", releases: " << rmx.stats().releases << "\n"
              << "cycle reduction vs baseline: "
              << percent(cycleReduction(base, rmx.stats())) << "\n\n"
              << "Paper's claim: the baseline reserves 31 registers "
                 "per warp for the full duration, preventing any "
                 "overlap (2 x 31 > 48); RegMutex overlaps the "
                 "release-state code and serializes only the "
                 "extended-set regions.\n\n";

    // Acquire, release, stall and lifetime events of the two warps.
    std::cout << "RegMutex timeline (acquire/release/lifetime events "
                 "only):\n";
    for (const TraceEvent &event : timeline.events()) {
        if (event.kind == TraceKind::Issue)
            continue;
        std::cout << "  cycle " << event.cycle << "  warp "
                  << event.warpSlot << " (cta " << event.ctaId << "): "
                  << IssueTrace::kindName(event.kind) << "\n";
    }
    return 0;
}

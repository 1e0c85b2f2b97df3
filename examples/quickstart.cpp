/**
 * @file
 * Quickstart: build a synthetic kernel, compile it with the RegMutex
 * pipeline, and compare baseline vs. RegMutex execution on the GTX480
 * resource model.
 *
 * Run: ./examples/quickstart
 */

#include <iostream>

#include "common/table.hh"
#include "core/experiment.hh"
#include "workloads/generator.hh"

int
main()
{
    using namespace rm;

    // A register-hungry kernel: 32 registers per thread, one hot loop
    // whose burst needs all of them, CTAs of 512 threads.
    KernelSpec spec;
    spec.name = "quickstart";
    spec.regs = 32;
    spec.ctaThreads = 512;
    spec.gridCtasPerSm = 9;
    spec.persistent = 8;
    spec.phases = {
        {.trips = 4, .peak = 20, .loads = 3, .memTrips = 3},
        {.trips = 8, .peak = 32, .loads = 4, .memTrips = 4, .aluPerTemp = 1, .divergent = true},
    };
    const Program program = buildKernel(spec);

    const GpuConfig config = gtx480Config();

    const SimStats base = runPolicy("baseline", program, config).stats();
    const PolicyRun rmx = runPolicy("regmutex", program, config);
    const CompileResult &compiled = *rmx.compile.compile;

    std::cout << "kernel: " << spec.name << " (" << program.info.numRegs
              << " regs/thread, " << program.size() << " instructions)\n";
    if (compiled.enabled()) {
        std::cout << "RegMutex split: |Bs| = "
                  << compiled.selection.bs << ", |Es| = "
                  << compiled.selection.es << ", SRP sections = "
                  << compiled.selection.srpSections << "\n";
    } else {
        std::cout << "RegMutex: not applied (no occupancy benefit)\n";
    }

    Table table({"policy", "cycles", "IPC", "occupancy", "acq success"});
    auto add = [&](const SimStats &stats) {
        Row row;
        row << stats.allocatorName
            << static_cast<unsigned long long>(stats.cycles)
            << fixed(stats.ipc(), 3)
            << percent(stats.theoreticalOccupancy)
            << percent(stats.acquireSuccessRate());
        table.addRow(row.take());
    };
    add(base);
    add(rmx.stats());
    std::cout << "\n" << table.toText() << "\ncycle reduction: "
              << percent(cycleReduction(base, rmx.stats())) << "\n";
    return 0;
}

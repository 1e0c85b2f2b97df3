/**
 * @file
 * Occupancy explorer: sweeps a kernel's register demand and shows how
 * the baseline's theoretical occupancy degrades while RegMutex holds
 * it up by shrinking the statically allocated base set — the paper's
 * Sec. II motivation turned into a tool.
 *
 * Run: ./examples/occupancy_explorer
 */

#include <iostream>

#include "common/table.hh"
#include "core/experiment.hh"
#include "sim/occupancy.hh"
#include "workloads/generator.hh"

int
main()
{
    using namespace rm;
    const GpuConfig config = gtx480Config();

    Table table({"regs/thread", "base occ.", "rmx occ.", "|Bs|", "|Es|",
                 "base cycles", "rmx cycles", "reduction"});

    for (int regs : {20, 24, 28, 32, 36, 40}) {
        KernelSpec spec;
        spec.name = "sweep" + std::to_string(regs);
        spec.regs = regs;
        spec.ctaThreads = 512;
        spec.gridCtasPerSm = 9;
        spec.persistent = 6;
        spec.seed = 42 + regs;
        spec.phases = {
            {.trips = 6, .peak = regs, .loads = 4, .memTrips = 4,
             .aluPerTemp = 1, .divergent = true},
        };
        const Program p = buildKernel(spec);

        const SimStats base = runPolicy("baseline", p, config).stats();
        const PolicyRun rmx = runPolicy("regmutex", p, config);
        const CompileResult &compiled = *rmx.compile.compile;

        Row row;
        row << regs << percent(base.theoreticalOccupancy)
            << percent(rmx.stats().theoreticalOccupancy);
        if (compiled.enabled()) {
            row << compiled.selection.bs << compiled.selection.es;
        } else {
            row << "-" << "-";
        }
        row << static_cast<unsigned long long>(base.cycles)
            << static_cast<unsigned long long>(rmx.stats().cycles)
            << percent(cycleReduction(base, rmx.stats()));
        table.addRow(row.take());
    }

    std::cout << "Occupancy and performance vs register demand "
                 "(512-thread CTAs, GTX480)\n\n"
              << table.toText()
              << "\nAs the static demand grows past the register "
                 "file's comfort zone, the baseline loses warps while "
                 "RegMutex keeps them resident by time-sharing the "
                 "peak-only registers.\n";
    return 0;
}

/**
 * @file
 * Register-file down-sizing study ("performance per dollar"): runs one
 * kernel across a range of register-file sizes and compares the
 * baseline's degradation against RegMutex — the paper's second framing
 * of the technique (Sec. I: "sustain approximately the same
 * performance with a smaller hardware register file").
 *
 * Run: ./examples/halfsize_study [workload-name|file.asm]  (default: SPMV)
 * Exits 1 on a kernel it cannot load or simulate.
 */

#include <iostream>
#include <string>

#include "common/errors.hh"
#include "common/table.hh"
#include "core/experiment.hh"
#include "workloads/suite.hh"

int
main(int argc, char **argv)
{
    using namespace rm;
    const std::string name = argc > 1 ? argv[1] : "SPMV";
    try {
        const Program p = loadKernel(name);

        const GpuConfig full = gtx480Config();
        const SimStats reference = runPolicy("baseline", p, full).stats();

        Table table({"RF size (KB)", "base occ.", "base slowdown",
                     "rmx occ.", "rmx slowdown"});
        for (int kb : {128, 96, 64, 48}) {
            GpuConfig config = full;
            config.registersPerSm = kb * 1024 / 4;  // 32-bit registers

            const SimStats base = runPolicy("baseline", p, config).stats();
            const PolicyRun rmx = runPolicy("regmutex", p, config);

            Row row;
            row << kb << percent(base.theoreticalOccupancy)
                << percent(-cycleReduction(reference, base))
                << percent(rmx.stats().theoreticalOccupancy)
                << percent(-cycleReduction(reference, rmx.stats()));
            table.addRow(row.take());
        }

        std::cout << "Register-file down-sizing study for " << name
                  << " (slowdown vs the 128 KB baseline)\n\n"
                  << table.toText()
                  << "\nRegMutex keeps the slowdown curve flat longer: "
                     "the same silicon budget buys more performance, or "
                     "the same performance needs less silicon.\n";
        return 0;
    } catch (const FatalError &e) {
        std::cerr << "halfsize_study: error: " << e.what() << "\n";
        return 1;
    }
}

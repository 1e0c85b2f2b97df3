/**
 * @file
 * Register-file energy study (beyond the paper's own figures, but
 * squarely in its motivation: Sec. I frames RegMutex as "the same
 * performance with a smaller register file, hence higher performance
 * per dollar", and Sec. IV-B cites GPU-Shrink's 20%/30% power savings
 * from halving the file). For each register-file size, the bench
 * reports the baseline's and RegMutex's cycles and modeled
 * register-file energy across the Fig. 8 workload set.
 *
 * Run: energy_study [workload-name|file.asm]. Given a kernel, it
 * studies that kernel alone and adds a 48 KB row: the down-sizing
 * curve of one kernel. Exits 1 on a kernel it cannot load or simulate.
 */

#include <iostream>
#include <string>
#include <vector>

#include "common/errors.hh"
#include "common/table.hh"
#include "core/experiment.hh"
#include "regmutex/energy.hh"
#include "workloads/suite.hh"

int
main(int argc, char **argv)
try {
    using namespace rm;
    const GpuConfig full = gtx480Config();
    std::vector<Program> kernels;
    std::vector<int> sizes_kb = {128, 96, 64};
    std::string subject = "over the Fig. 8 set";
    if (argc > 1) {
        kernels.push_back(loadKernel(argv[1]));
        sizes_kb.push_back(48);
        subject = std::string("for ") + argv[1];
    } else {
        for (const auto &name : halfRfSet())
            kernels.push_back(buildWorkload(name));
    }

    Table table({"RF size", "base cycles (norm)", "base energy (norm)",
                 "rmx cycles (norm)", "rmx energy (norm)"});

    // Reference: full file, baseline policy, summed over the set.
    double ref_cycles = 0.0, ref_energy = 0.0;
    for (const Program &p : kernels) {
        const SimStats stats = runPolicy("baseline", p, full).stats();
        ref_cycles += static_cast<double>(stats.cycles);
        ref_energy += estimateEnergy(full, stats).total();
    }

    for (int kb : sizes_kb) {
        GpuConfig config = full;
        config.registersPerSm = kb * 1024 / 4;
        double base_cycles = 0.0, base_energy = 0.0;
        double rmx_cycles = 0.0, rmx_energy = 0.0;
        for (const Program &p : kernels) {
            const SimStats base = runPolicy("baseline", p, config).stats();
            base_cycles += static_cast<double>(base.cycles);
            base_energy += estimateEnergy(config, base).total();
            const SimStats rmx = runPolicy("regmutex", p, config).stats();
            rmx_cycles += static_cast<double>(rmx.cycles);
            rmx_energy += estimateEnergy(config, rmx).total();
        }
        Row row;
        row << (std::to_string(kb) + " KB")
            << fixed(base_cycles / ref_cycles, 3)
            << fixed(base_energy / ref_energy, 3)
            << fixed(rmx_cycles / ref_cycles, 3)
            << fixed(rmx_energy / ref_energy, 3);
        table.addRow(row.take());
    }

    std::cout << "Register-file energy study " << subject
              << " (normalized to the 128 KB baseline)\n\n"
              << table.toText()
              << "\nExpected shape: shrinking the file saves leakage "
                 "but costs the baseline cycles; RegMutex keeps the "
                 "cycle column near 1.0 so the energy saving is "
                 "banked — the paper's performance-per-dollar "
                 "argument (cf. GPU-Shrink's 20-30% savings).\n";
    return 0;
} catch (const rm::FatalError &e) {
    std::cerr << "energy_study: error: " << e.what() << "\n";
    return 1;
}

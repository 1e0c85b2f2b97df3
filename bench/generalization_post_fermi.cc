/**
 * @file
 * Reproduces the paper's generalization argument (Sec. IV): although
 * post-Fermi GPUs doubled the per-SM register file, they also raised
 * the resident-warp limit to 64, so any kernel above 32 registers per
 * thread still cannot reach full occupancy — "the register file
 * underutilization challenge does indeed still exist" and RegMutex
 * keeps applying. The register-hungry workloads are run on Kepler-,
 * Maxwell- and Volta-class resource models.
 */

#include <iostream>

#include "common/errors.hh"
#include "common/table.hh"
#include "core/experiment.hh"
#include "workloads/suite.hh"

int
main()
{
    using namespace rm;

    struct Arch
    {
        const char *name;
        GpuConfig config;
    };
    const Arch archs[] = {
        {"GTX480 (Fermi)", gtx480Config()},
        {"Kepler-class", keplerConfig()},
        {"Maxwell-class", maxwellConfig()},
        {"Volta-class", voltaConfig()},
    };

    // The high-register kernels: > 32 regs/thread rounded.
    const std::vector<std::string> heavy{"DWT2D", "RadixSort",
                                         "LavaMD"};

    Table table({"Architecture", "Application", "base occ.", "rmx occ.",
                 "cycle red."});
    for (const auto &arch : archs) {
        for (const auto &name : heavy) {
            const Program p = buildWorkload(name);
            try {
                const SimStats base =
                    runPolicy("baseline", p, arch.config).stats();
                const PolicyRun rmx = runPolicy("regmutex", p, arch.config);
                Row row;
                row << arch.name << name
                    << percent(base.theoreticalOccupancy)
                    << percent(rmx.stats().theoreticalOccupancy)
                    << percent(cycleReduction(base, rmx.stats()));
                table.addRow(row.take());
            } catch (const FatalError &e) {
                Row row;
                row << arch.name << name << "n/a" << "n/a" << e.what();
                table.addRow(row.take());
            }
        }
    }

    std::cout << "Generalization to post-Fermi architectures "
                 "(paper Sec. IV)\n\n"
              << table.toText()
              << "\nExpected shape: the >32-register kernels stay "
                 "occupancy-limited on every generation and RegMutex "
                 "keeps recovering warps — the challenge did not "
                 "disappear with bigger register files.\n";
    return 0;
}

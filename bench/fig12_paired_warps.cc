/**
 * @file
 * Reproduces Fig. 12: the paired-warps specialization (Sec. III-C) on
 * (a) the baseline architecture for the register-limited kernels, and
 * (b) the half-register-file architecture for the other eight,
 * reporting cycle deltas and occupancy next to default RegMutex.
 * Paper: paired-warps averages 8% reduction in (a) — 4% below the
 * default mode — and a 17% increase in (b).
 */

#include <iostream>

#include "common/table.hh"
#include "core/experiment.hh"
#include "obs/report.hh"
#include "workloads/suite.hh"

int
main(int argc, char **argv)
{
    using namespace rm;
    const GpuConfig full = gtx480Config();
    const GpuConfig half = halfRegisterFile(full);
    BenchReport report("fig12_paired_warps", argc, argv);

    {
        Table table({"Application", "Paired red.", "Default red.",
                     "Occ. paired", "Occ. default"});
        double paired_total = 0.0, default_total = 0.0;
        for (const auto &name : occupancyLimitedSet()) {
            const Program p = buildWorkload(name);
            const SimStats base = runPolicy("baseline", p, full).stats();
            const PolicyRun paired = runPolicy("paired", p, full);
            const PolicyRun dflt = runPolicy("regmutex", p, full);
            const double pr = cycleReduction(base, paired.stats());
            const double dr = cycleReduction(base, dflt.stats());
            paired_total += pr;
            default_total += dr;
            report.addRun(paired.stats(),
                          {{"workload", name}, {"arch", "full-RF"},
                           {"policy", "paired"}},
                          {{"cycle_reduction", pr}});
            report.addRun(dflt.stats(),
                          {{"workload", name}, {"arch", "full-RF"},
                           {"policy", "regmutex"}},
                          {{"cycle_reduction", dr}});
            Row row;
            row << name << percent(pr) << percent(dr)
                << percent(paired.stats().theoreticalOccupancy)
                << percent(dflt.stats().theoreticalOccupancy);
            table.addRow(row.take());
        }
        std::cout << "Fig. 12a: paired-warps specialization on the "
                     "baseline architecture (cycle reduction)\n\n"
                  << table.toText() << "\nAverages: paired "
                  << percent(paired_total / 8.0) << ", default "
                  << percent(default_total / 8.0)
                  << "   (paper: 8% vs 12%)\n\n";
        report.summary("fig12a_average_paired", paired_total / 8.0);
        report.summary("fig12a_average_default", default_total / 8.0);
    }

    {
        Table table({"Application", "Paired incr.", "Default incr.",
                     "No-technique incr."});
        double paired_total = 0.0, default_total = 0.0,
               none_total = 0.0;
        for (const auto &name : halfRfSet()) {
            const Program p = buildWorkload(name);
            const SimStats base_full = runPolicy("baseline", p, full).stats();
            auto increase = [&](const SimStats &stats) {
                return -cycleReduction(base_full, stats);
            };
            const double none =
                increase(runPolicy("baseline", p, half).stats());
            const double pi = increase(runPolicy("paired", p, half).stats());
            const double di = increase(runPolicy("regmutex", p, half).stats());
            paired_total += pi;
            default_total += di;
            none_total += none;
            report.addRecord({{"workload", name}, {"arch", "half-RF"}},
                             {{"paired_cycle_increase", pi},
                              {"default_cycle_increase", di},
                              {"none_cycle_increase", none}});
            Row row;
            row << name << percent(pi) << percent(di) << percent(none);
            table.addRow(row.take());
        }
        std::cout << "Fig. 12b: paired-warps on half the register "
                     "file (cycle increase vs full-RF baseline)\n\n"
                  << table.toText() << "\nAverages: paired "
                  << percent(paired_total / 8.0) << ", default "
                  << percent(default_total / 8.0) << ", none "
                  << percent(none_total / 8.0)
                  << "   (paper: 17% / 9% / 22%)\n";
        report.summary("fig12b_average_paired", paired_total / 8.0);
        report.summary("fig12b_average_default", default_total / 8.0);
        report.summary("fig12b_average_none", none_total / 8.0);
    }
    return 0;
}

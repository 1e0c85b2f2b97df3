/**
 * @file
 * Reproduces Fig. 11: (a) theoretical occupancy and (b) the ratio of
 * successful acquires to executed acquire instructions, as |Es| is
 * swept over {2, 4, 6, 8, 10, 12}. Paper shape: occupancy grows with
 * |Es| while the acquire success rate usually falls (fewer, larger
 * SRP sections mean more contention).
 */

#include <iostream>

#include "common/errors.hh"
#include "common/table.hh"
#include "core/experiment.hh"
#include "obs/report.hh"
#include "workloads/suite.hh"

int
main(int argc, char **argv)
{
    using namespace rm;
    const GpuConfig config = gtx480Config();
    const std::vector<int> sizes{2, 4, 6, 8, 10, 12};
    BenchReport report("fig11_acquire_analysis", argc, argv);

    Table occ({"Application", "|Es|=2", "|Es|=4", "|Es|=6", "|Es|=8",
               "|Es|=10", "|Es|=12"});
    Table acq = occ;

    for (const auto &name : occupancyLimitedSet()) {
        const Program p = buildWorkload(name);
        const PolicyRun heuristic = runPolicy("regmutex", p, config);
        const int pick = heuristic.compile.compile->selection.es;
        Row occ_row, acq_row;
        occ_row << name;
        acq_row << name;
        for (int es : sizes) {
            RunOptions options;
            options.compile.forcedEs = es;
            try {
                const PolicyRun run =
                    runPolicy("regmutex", p, config, options);
                report.addRun(run.stats(),
                              {{"workload", name},
                               {"es", std::to_string(es)},
                               {"heuristic_pick",
                                es == pick ? "yes" : "no"}},
                              {{"occupancy",
                                run.stats().theoreticalOccupancy},
                               {"acquire_success_rate",
                                run.stats().acquireSuccessRate()}});
                std::string o =
                    percent(run.stats().theoreticalOccupancy);
                std::string a =
                    percent(run.stats().acquireSuccessRate());
                if (es == pick) {
                    o += " *";
                    a += " *";
                }
                occ_row << o;
                acq_row << a;
            } catch (const FatalError &) {
                occ_row << "n/a";
                acq_row << "n/a";
            }
        }
        occ.addRow(occ_row.take());
        acq.addRow(acq_row.take());
    }

    std::cout << "Fig. 11a: theoretical occupancy vs |Es| "
                 "(* = heuristic's pick)\n\n"
              << occ.toText()
              << "\nFig. 11b: successful acquires among all acquire "
                 "instructions vs |Es|\n\n"
              << acq.toText()
              << "\nExpected shape: occupancy rises with |Es| while "
                 "the acquire success rate usually falls.\n";
    return 0;
}

/**
 * @file
 * Reproduces Fig. 10: sensitivity of the cycle reduction to the
 * extended-set size, sweeping |Es| in {2, 4, 6, 8, 10, 12} for the
 * eight register-limited kernels; the heuristic's pick is marked with
 * an asterisk (the paper's diagonal stripes). Sizes violating a
 * deadlock-avoidance rule print "n/a".
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
    BenchReport report("fig10_es_sensitivity", argc, argv);

    Table table({"Application", "|Es|=2", "|Es|=4", "|Es|=6", "|Es|=8",
                 "|Es|=10", "|Es|=12", "heuristic"});
    for (const auto &name : occupancyLimitedSet()) {
        const Program p = buildWorkload(name);
        const SimStats base = runPolicy("baseline", p, config).stats();
        const PolicyRun heuristic = runPolicy("regmutex", p, config);
        const int pick = heuristic.compile.compile->selection.es;

        Row row;
        row << name;
        for (int es : sizes) {
            RunOptions options;
            options.compile.forcedEs = es;
            std::string cell;
            try {
                const PolicyRun run =
                    runPolicy("regmutex", p, config, options);
                cell = percent(cycleReduction(base, run.stats()));
                report.addRun(run.stats(),
                              {{"workload", name},
                               {"es", std::to_string(es)},
                               {"heuristic_pick",
                                es == pick ? "yes" : "no"}},
                              {{"cycle_reduction",
                                cycleReduction(base, run.stats())}});
            } catch (const FatalError &) {
                cell = "n/a";
                report.addRecord({{"workload", name},
                                  {"es", std::to_string(es)},
                                  {"status", "n/a"}});
            }
            if (es == pick)
                cell += " *";
            row << cell;
        }
        row << percent(cycleReduction(base, heuristic.stats()));
        table.addRow(row.take());
    }

    std::cout << "Fig. 10: cycle reduction vs extended-set size "
                 "(higher is better; * = heuristic's pick)\n\n"
              << table.toText()
              << "\nExpected shape: the best |Es| differs per "
                 "application and the heuristic lands on or near it.\n";
    return 0;
}

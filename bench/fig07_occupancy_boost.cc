/**
 * @file
 * Reproduces Fig. 7: execution-cycle reduction enabled by RegMutex
 * over the baseline for the eight register-limited kernels, alongside
 * the theoretical occupancy before and after. Paper: average 13%
 * reduction, up to 23% (BFS).
 *
 * Driven by the parallel sweep runner: the (workload × policy) grid
 * executes concurrently on the shared thread pool. `--sms N` runs the
 * real N-SM machine instead of the representative SM; `--threads N`
 * caps sweep parallelism.
 */

#include <iostream>

#include "common/table.hh"
#include "core/sweep.hh"
#include "obs/report.hh"
#include "workloads/suite.hh"

int
main(int argc, char **argv)
{
    using namespace rm;
    GpuConfig config = gtx480Config();
    BenchReport report("fig07_occupancy_boost", argc, argv);
    const SweepCli cli(argc, argv);
    SweepOptions sweep;
    cli.apply(config, sweep);

    const std::vector<std::string> workloads = occupancyLimitedSet();
    const std::vector<SweepResult> results = runSweep(
        sweepGrid(workloads, {"baseline", "regmutex"},
                  {{"GTX480", config}}),
        sweep);
    if (reportSweepFailures(results, std::cerr) > 0)
        return 1;

    Table table({"Application", "Exec. cycle red.", "Init. occupancy",
                 "Occ. w/ RegMutex", "|Bs|", "|Es|", "Acq. success"});
    double total = 0.0;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const std::string &name = workloads[w];
        const SimStats &base = results[2 * w].stats();
        const SweepResult &rmx = results[2 * w + 1];
        const CompileResult &compile = *rmx.compile.compile;
        const double reduction = cycleReduction(base, rmx.stats());
        total += reduction;
        report.addRun(base, {{"workload", name}, {"policy", "baseline"}});
        report.addRun(rmx.stats(),
                      {{"workload", name}, {"policy", "regmutex"}},
                      {{"cycle_reduction", reduction},
                       {"bs", compile.selection.bs},
                       {"es", compile.selection.es}});

        Row row;
        row << name << percent(reduction)
            << percent(base.theoreticalOccupancy)
            << percent(rmx.stats().theoreticalOccupancy)
            << compile.selection.bs << compile.selection.es
            << percent(rmx.stats().acquireSuccessRate());
        table.addRow(row.take());
    }

    std::cout << "Fig. 7: performance improvement enabled by RegMutex "
                 "over the baseline (GTX480)\n\n"
              << table.toText() << "\nAverage execution-cycle "
              << "reduction: " << percent(total / 8.0)
              << "   (paper: 13% average, up to 23%)\n";
    report.summary("average_cycle_reduction", total / 8.0);
    return 0;
}

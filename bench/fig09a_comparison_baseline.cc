/**
 * @file
 * Reproduces Fig. 9a: execution-cycle reduction of OWF (Jatala et
 * al.), RFV (Jeon et al.) and RegMutex over the baseline architecture
 * for the eight register-limited kernels. Paper averages: OWF 1.9%,
 * RFV 16.2%, RegMutex 12.8%.
 *
 * Driven by the parallel sweep runner; `--sms N` runs the real N-SM
 * machine, `--threads N` caps sweep parallelism.
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
    BenchReport report("fig09a_comparison_baseline", argc, argv);
    const SweepCli cli(argc, argv);
    SweepOptions sweep;
    cli.apply(config, sweep);

    const std::vector<std::string> workloads = occupancyLimitedSet();
    const std::vector<SweepResult> results = runSweep(
        sweepGrid(workloads, {"baseline", "owf", "rfv", "regmutex"},
                  {{"GTX480", config}}),
        sweep);
    if (reportSweepFailures(results, std::cerr) > 0)
        return 1;

    Table table({"Application", "OWF", "RFV", "RegMutex"});
    double owf_total = 0.0, rfv_total = 0.0, rmx_total = 0.0;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const std::string &name = workloads[w];
        const SimStats &base = results[4 * w].stats();
        const double owf =
            cycleReduction(base, results[4 * w + 1].stats());
        const double rfv =
            cycleReduction(base, results[4 * w + 2].stats());
        const double rmx =
            cycleReduction(base, results[4 * w + 3].stats());
        owf_total += owf;
        rfv_total += rfv;
        rmx_total += rmx;
        report.addRecord({{"workload", name}},
                         {{"owf_cycle_reduction", owf},
                          {"rfv_cycle_reduction", rfv},
                          {"regmutex_cycle_reduction", rmx}});

        Row row;
        row << name << percent(owf) << percent(rfv) << percent(rmx);
        table.addRow(row.take());
    }

    Row avg;
    avg << "AVERAGE" << percent(owf_total / 8.0)
        << percent(rfv_total / 8.0) << percent(rmx_total / 8.0);
    table.addRow(avg.take());

    std::cout << "Fig. 9a: cycle reduction vs related work on the "
                 "baseline architecture (higher is better)\n\n"
              << table.toText()
              << "\nPaper averages: OWF 1.9%, RFV 16.2%, RegMutex "
                 "12.8% — expected shape: OWF far behind, RFV "
                 "slightly ahead of RegMutex at >81x the storage "
                 "cost.\n";
    report.summary("average_owf", owf_total / 8.0);
    report.summary("average_rfv", rfv_total / 8.0);
    report.summary("average_regmutex", rmx_total / 8.0);
    return 0;
}

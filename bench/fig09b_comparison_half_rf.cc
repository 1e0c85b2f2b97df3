/**
 * @file
 * Reproduces Fig. 9b: execution-cycle increase on the architecture
 * with half the register file, for no technique / OWF / RFV /
 * RegMutex, relative to the full-register-file baseline. Paper
 * averages: none 22.9%, OWF 20.6%, RFV 5.9%, RegMutex 10.8%.
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
    GpuConfig full = gtx480Config();
    BenchReport report("fig09b_comparison_half_rf", argc, argv);
    const SweepCli cli(argc, argv);
    SweepOptions sweep;
    cli.apply(full, sweep);
    const GpuConfig half = halfRegisterFile(full);

    // Per workload: the full-RF baseline reference, then the four
    // half-RF techniques — five cells, indexed 5*w.
    const std::vector<std::string> techniques = {"baseline", "owf", "rfv",
                                                 "regmutex"};
    const std::vector<std::string> workloads = halfRfSet();
    std::vector<SweepCase> grid;
    for (const std::string &name : workloads) {
        SweepCase c;
        c.workload = name;
        c.policy = "baseline";
        c.arch = "full-RF";
        c.config = full;
        grid.push_back(c);
        c.arch = "half-RF";
        c.config = half;
        for (const std::string &policy : techniques) {
            c.policy = policy;
            grid.push_back(c);
        }
    }
    const std::vector<SweepResult> results = runSweep(grid, sweep);
    if (reportSweepFailures(results, std::cerr) > 0)
        return 1;

    Table table({"Application", "No Technique", "OWF", "RFV",
                 "RegMutex"});
    double none_total = 0.0, owf_total = 0.0, rfv_total = 0.0,
           rmx_total = 0.0;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const std::string &name = workloads[w];
        const SimStats &base_full = results[5 * w].stats();
        auto increase = [&](const SimStats &stats) {
            return -cycleReduction(base_full, stats);
        };
        const double none = increase(results[5 * w + 1].stats());
        const double owf = increase(results[5 * w + 2].stats());
        const double rfv = increase(results[5 * w + 3].stats());
        const double rmx = increase(results[5 * w + 4].stats());
        none_total += none;
        owf_total += owf;
        rfv_total += rfv;
        rmx_total += rmx;
        report.addRecord({{"workload", name}},
                         {{"none_cycle_increase", none},
                          {"owf_cycle_increase", owf},
                          {"rfv_cycle_increase", rfv},
                          {"regmutex_cycle_increase", rmx}});

        Row row;
        row << name << percent(none) << percent(owf) << percent(rfv)
            << percent(rmx);
        table.addRow(row.take());
    }

    Row avg;
    avg << "AVERAGE" << percent(none_total / 8.0)
        << percent(owf_total / 8.0) << percent(rfv_total / 8.0)
        << percent(rmx_total / 8.0);
    table.addRow(avg.take());

    std::cout << "Fig. 9b: cycle increase with half the registers "
                 "(lower is better), vs the full-RF baseline\n\n"
              << table.toText()
              << "\nPaper averages: none 22.9%, OWF 20.6%, RFV 5.9%, "
                 "RegMutex 10.8%.\n";
    report.summary("average_none", none_total / 8.0);
    report.summary("average_owf", owf_total / 8.0);
    report.summary("average_rfv", rfv_total / 8.0);
    report.summary("average_regmutex", rmx_total / 8.0);
    return 0;
}

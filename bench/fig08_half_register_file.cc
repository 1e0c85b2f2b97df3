/**
 * @file
 * Reproduces Fig. 8: execution-cycle increase on an architecture with
 * half the baseline's register file (64 KB per SM), with and without
 * RegMutex, measured against the kernel's performance on the full
 * register file. Paper: 23% average increase without RegMutex vs 9%
 * with it.
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
    BenchReport report("fig08_half_register_file", argc, argv);
    const SweepCli cli(argc, argv);
    SweepOptions sweep;
    cli.apply(full, sweep);
    const GpuConfig half = halfRegisterFile(full);

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
        grid.push_back(c);
        c.policy = "regmutex";
        grid.push_back(c);
    }
    const std::vector<SweepResult> results = runSweep(grid, sweep);
    if (reportSweepFailures(results, std::cerr) > 0)
        return 1;

    Table table({"Application", "Incr. w/o RegMutex", "Incr. w/ RegMutex",
                 "Occupancy w/o", "Occupancy w/", "|Bs|", "|Es|"});
    double base_total = 0.0;
    double rmx_total = 0.0;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const std::string &name = workloads[w];
        const SimStats &base_full = results[3 * w].stats();
        const SimStats &base_half = results[3 * w + 1].stats();
        const SweepResult &rmx_half = results[3 * w + 2];
        const CompileResult &compile = *rmx_half.compile.compile;

        const double base_inc = -cycleReduction(base_full, base_half);
        const double rmx_inc =
            -cycleReduction(base_full, rmx_half.stats());
        base_total += base_inc;
        rmx_total += rmx_inc;
        report.addRun(base_full,
                      {{"workload", name}, {"arch", "full-RF"},
                       {"policy", "baseline"}});
        report.addRun(base_half,
                      {{"workload", name}, {"arch", "half-RF"},
                       {"policy", "baseline"}},
                      {{"cycle_increase", base_inc}});
        report.addRun(rmx_half.stats(),
                      {{"workload", name}, {"arch", "half-RF"},
                       {"policy", "regmutex"}},
                      {{"cycle_increase", rmx_inc},
                       {"bs", compile.selection.bs},
                       {"es", compile.selection.es}});

        Row row;
        row << name << percent(base_inc) << percent(rmx_inc)
            << percent(base_half.theoreticalOccupancy)
            << percent(rmx_half.stats().theoreticalOccupancy)
            << compile.selection.bs << compile.selection.es;
        table.addRow(row.take());
    }

    std::cout << "Fig. 8: cycle increase on an architecture with half "
                 "the register file (lower is better)\n\n"
              << table.toText() << "\nAverage increase: "
              << percent(base_total / 8.0) << " without RegMutex vs "
              << percent(rmx_total / 8.0)
              << " with RegMutex   (paper: 23% vs 9%)\n";
    report.summary("average_increase_baseline", base_total / 8.0);
    report.summary("average_increase_regmutex", rmx_total / 8.0);
    return 0;
}

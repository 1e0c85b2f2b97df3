/**
 * @file
 * Ablation bench for the design choices DESIGN.md calls out, beyond
 * the paper's own experiments:
 *  - index compaction on/off (how much of the win the compiler earns),
 *  - wake-on-release vs poll-retry acquire handling,
 *  - GTO vs LRR warp scheduling.
 * Run over the register-limited set; each column reports the cycle
 * reduction against the plain baseline.
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
    const GpuConfig gto = gtx480Config();
    GpuConfig poll = gto;
    poll.wakeOnRelease = false;
    GpuConfig lrr = gto;
    lrr.schedPolicy = SchedPolicy::Lrr;
    GpuConfig banks = gto;
    banks.modelBankConflicts = true;

    RunOptions no_compaction;
    no_compaction.compile.enableCompaction = false;

    Table table({"Application", "full", "no compaction", "poll retry",
                 "LRR sched", "bank conflicts"});
    double totals[5] = {0, 0, 0, 0, 0};
    for (const auto &name : occupancyLimitedSet()) {
        const Program p = buildWorkload(name);
        const SimStats base = runPolicy("baseline", p, gto).stats();

        const double full =
            cycleReduction(base, runPolicy("regmutex", p, gto).stats());
        // Without compaction a kernel can fail the barrier deadlock
        // rule outright (no candidate leaves the barrier's live set
        // inside the base registers) — itself an ablation finding.
        std::string nc_cell;
        double nc = 0.0;
        bool nc_ok = true;
        try {
            nc = cycleReduction(
                base,
                runPolicy("regmutex", p, gto, no_compaction).stats());
            nc_cell = percent(nc);
        } catch (const FatalError &) {
            nc_ok = false;
            nc_cell = "no valid compile";
        }
        const double pr =
            cycleReduction(base, runPolicy("regmutex", p, poll).stats());
        const SimStats lrr_base = runPolicy("baseline", p, lrr).stats();
        const double lr = cycleReduction(
            lrr_base, runPolicy("regmutex", p, lrr).stats());
        const SimStats banks_base =
            runPolicy("baseline", p, banks).stats();
        const double bc = cycleReduction(
            banks_base, runPolicy("regmutex", p, banks).stats());
        totals[0] += full;
        totals[1] += nc_ok ? nc : 0.0;
        totals[2] += pr;
        totals[3] += lr;
        totals[4] += bc;

        Row row;
        row << name << percent(full) << nc_cell << percent(pr)
            << percent(lr) << percent(bc);
        table.addRow(row.take());
    }

    Row avg;
    avg << "AVERAGE" << percent(totals[0] / 8.0)
        << percent(totals[1] / 8.0) << percent(totals[2] / 8.0)
        << percent(totals[3] / 8.0) << percent(totals[4] / 8.0);
    table.addRow(avg.take());

    std::cout << "Ablation: RegMutex cycle reduction under design "
                 "variants (higher is better)\n\n"
              << table.toText()
              << "\nExpected: compaction accounts for a large share "
                 "of the win (without it the held regions inflate); "
                 "poll-retry trails wake-on-release slightly.\n";
    return 0;
}

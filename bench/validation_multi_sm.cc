/**
 * @file
 * Validation bench for DESIGN.md's representative-SM substitution: the
 * paper evaluates a 15-SM GTX480; the seed benches simulate one SM with
 * its share of the grid. Here the real multi-SM engine runs every SM of
 * the full machine concurrently (exact CTA distribution including the
 * remainder SMs, per-SM allocator instances and memory seeds) and the
 * relative RegMutex benefit is compared against the representative-SM
 * shortcut. Since all SMs execute statistically identical CTA streams,
 * the two must agree closely — and do. The per-SM cycle spread column
 * shows how much the seed-induced variation between SMs actually is.
 *
 * `--sms N` overrides the machine size (default: the config's 15);
 * `--threads N` caps the engine's SM-level parallelism. The bench runs
 * `runPolicy`, not a sweep, so the sweep-only flags `--checkpoint`,
 * `--sanitize` and `--no-lint` are usage errors (exit 2).
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "common/table.hh"
#include "core/sweep.hh"
#include "workloads/suite.hh"

namespace {

/** Smallest and largest per-SM cycle count, as a fraction of the max. */
double
cycleSpread(const rm::GpuResult &run)
{
    std::uint64_t lo = run.perSm.front().cycles;
    std::uint64_t hi = lo;
    for (const rm::SimStats &sm : run.perSm) {
        lo = std::min(lo, sm.cycles);
        hi = std::max(hi, sm.cycles);
    }
    return hi == 0 ? 0.0 : 1.0 - static_cast<double>(lo) / hi;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rm;
    const GpuConfig config = gtx480Config();
    const SweepCli cli(argc, argv);
    if (!cli.checkpoint.empty() || cli.sanitize || cli.noLint) {
        std::cerr << argv[0]
                  << ": --checkpoint, --sanitize and --no-lint apply "
                     "to sweeps only\nusage: "
                  << argv[0] << " [--sms N] [--threads N]\n";
        return 2;
    }

    GpuConfig machine = config;
    machine.numSms = cli.sms > 1 ? cli.sms : config.numSms;
    RunOptions full_run;
    full_run.gpu.mode = GpuOptions::Mode::FullMachine;
    full_run.gpu.threads = cli.threads;

    Table table({"Application", "1-SM reduction", "Full reduction",
                 "abs. diff", "SM cycle spread", "CTAs/SM"});
    double worst_diff = 0.0;
    for (const auto &name : {"BFS", "ParticleFilter", "SAD"}) {
        const Program p = buildWorkload(name);

        const double one_sm =
            cycleReduction(runPolicy("baseline", p, config).stats(),
                           runPolicy("regmutex", p, config).stats());

        const PolicyRun base = runPolicy("baseline", p, machine, full_run);
        const PolicyRun rmx = runPolicy("regmutex", p, machine, full_run);
        const double full = cycleReduction(base.stats(), rmx.stats());

        const int share0 = ctasForSm(machine, p.info.gridCtas, 0);
        const int shareLast =
            ctasForSm(machine, p.info.gridCtas, machine.numSms - 1);

        worst_diff = std::max(worst_diff, std::abs(one_sm - full));
        Row row;
        row << name << percent(one_sm) << percent(full)
            << percent(std::abs(one_sm - full))
            << percent(cycleSpread(base.result))
            << (share0 == shareLast
                    ? std::to_string(share0)
                    : std::to_string(shareLast) + "-" +
                          std::to_string(share0));
        table.addRow(row.take());
    }

    std::cout << "Representative-SM validation: RegMutex benefit, one "
                 "SM with its grid share vs the real "
              << machine.numSms << "-SM machine\n\n"
              << table.toText() << "\nWorst disagreement: "
              << percent(worst_diff)
              << " — the per-SM shortcut preserves the relative "
                 "results (see DESIGN.md substitutions).\n";
    return 0;
}

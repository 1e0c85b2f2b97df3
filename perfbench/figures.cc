/**
 * @file
 * Workload `figures`: regenerating Figs. 7, 8, 9a and 9b. The 72
 * distinct cells of the four benches' grids go through runSweep with
 * the lint gate on, at nproc-way parallelism, and every cell's stats
 * are exported with statsToJson as the benches do. The seed only
 * permutes submission order, so every cell must match its stored
 * expectation on every seed.
 */

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "analysis/lint.hh"
#include "workloads.hh"
#include "workloads/suite.hh"

namespace perfbench {

namespace {

/** Policies the regmutex module implements; the others live in baselines. */
bool
isRegMutexPolicy(const std::string &policy)
{
    return policy == "regmutex" || policy == "paired";
}

} // namespace

rm::AllocatorFactory
timedAllocator(const rm::PolicySpec &policy, Tracer *tracer, int parent,
               int op)
{
    if (tracer == nullptr)
        return policy.allocator;
    const char *const name = isRegMutexPolicy(policy.name)
                                 ? "regmutex/PolicySpec::allocator"
                                 : "baselines/PolicySpec::allocator";
    return [&policy, tracer, parent, op, name](const rm::GpuConfig &config,
                                               const rm::Program &program) {
        Scope span(tracer, name, parent, op);
        return policy.allocator(config, program);
    };
}

std::string
cellKey(const rm::SweepCase &cell)
{
    return cell.workload + "|" + cell.policy + "|" + cell.arch;
}

std::vector<rm::SweepCase>
figureGrid()
{
    const rm::GpuConfig full = rm::gtx480Config();
    const rm::GpuConfig half = rm::halfRegisterFile(full);
    std::vector<rm::SweepCase> grid;
    std::set<std::string> seen;
    auto add = [&](const std::string &workload, const std::string &policy,
                   const std::string &arch, const rm::GpuConfig &config) {
        rm::SweepCase c;
        c.workload = workload;
        c.policy = policy;
        c.arch = arch;
        c.config = config;
        if (seen.insert(cellKey(c)).second)
            grid.push_back(c);
    };
    for (const std::string &w : rm::occupancyLimitedSet())  // fig07
        for (const char *p : {"baseline", "regmutex"})
            add(w, p, "GTX480", full);
    for (const std::string &w : rm::occupancyLimitedSet())  // fig09a
        for (const char *p : {"baseline", "owf", "rfv", "regmutex"})
            add(w, p, "GTX480", full);
    for (const std::string &w : rm::halfRfSet()) {  // fig08
        add(w, "baseline", "full-RF", full);
        add(w, "baseline", "half-RF", half);
        add(w, "regmutex", "half-RF", half);
    }
    for (const std::string &w : rm::halfRfSet()) {  // fig09b
        add(w, "baseline", "full-RF", full);
        for (const char *p : {"baseline", "owf", "rfv", "regmutex"})
            add(w, p, "half-RF", half);
    }
    return grid;
}

FiguresPass
runFiguresPass(const std::vector<rm::SweepCase> &grid,
               const std::map<std::string, rm::SimStats> &expected,
               std::uint64_t order_seed, int threads, Tracer *tracer)
{
    std::vector<rm::SweepCase> cases;
    cases.reserve(grid.size());
    for (std::size_t i : permutation(grid.size(), order_seed))
        cases.push_back(grid[i]);

    rm::SweepOptions options;  // lint gate on by default, as in the benches
    options.threads = threads;

    FiguresPass pass;
    const std::int64_t start = nowNs();
    Scope pass_span(tracer, "op/figures-pass");
    std::vector<rm::SweepResult> results;
    {
        Scope span(tracer, "core/runSweep", pass_span.spanId());
        results = rm::runSweep(cases, options);
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
        const rm::SweepResult &r = results[i];
        const std::string key = cellKey(cases[i]);
        ++pass.cells;
        std::string why;
        bool ok = r.ok();
        if (!ok) {
            why = std::string(rm::sweepStatusName(r.status)) + ": " + r.error;
        } else {
            const auto it = expected.find(key);
            Scope span(tracer, "obs/statsJsonRoundTrip", pass_span.spanId(),
                       static_cast<int>(i));
            ok = it != expected.end() && statsMatch(r.stats(), it->second, &why);
            if (it == expected.end())
                why = "no expected output";
        }
        if (!ok) {
            ++pass.failed;
            pass.errors.push_back(key + ": " + why);
        }
        pass.instructions += r.stats().instructions;
        pass.stats[key] = r.stats();
    }
    pass.seconds = secondsSince(start);
    return pass;
}

namespace {

/** One averaged figure number, its recorded value and the paper's. */
struct FigureClaim
{
    const char *label;
    double measured;
    double experiments;  ///< EXPERIMENTS.md, percent
    double paper;        ///< PAPER.md / EXPERIMENTS.md paper column
};

std::vector<FigureClaim>
figureClaims(const std::map<std::string, rm::SimStats> &s)
{
    auto at = [&](const std::string &w, const char *p, const char *a) {
        return s.at(w + "|" + p + "|" + a);
    };
    double fig7 = 0, owf9a = 0, rfv9a = 0, rmx9a = 0;
    for (const std::string &w : rm::occupancyLimitedSet()) {
        const rm::SimStats base = at(w, "baseline", "GTX480");
        fig7 += rm::cycleReduction(base, at(w, "regmutex", "GTX480"));
        owf9a += rm::cycleReduction(base, at(w, "owf", "GTX480"));
        rfv9a += rm::cycleReduction(base, at(w, "rfv", "GTX480"));
        rmx9a += rm::cycleReduction(base, at(w, "regmutex", "GTX480"));
    }
    double none9b = 0, owf9b = 0, rfv9b = 0, rmx9b = 0;
    for (const std::string &w : rm::halfRfSet()) {
        const rm::SimStats full = at(w, "baseline", "full-RF");
        auto inc = [&](const char *p) {
            return -rm::cycleReduction(full, at(w, p, "half-RF"));
        };
        none9b += inc("baseline");
        owf9b += inc("owf");
        rfv9b += inc("rfv");
        rmx9b += inc("regmutex");
    }
    const double n = 8.0;
    return {
        {"Fig. 7 cycle reduction, RegMutex", fig7 / n, 13.1, 13.0},
        {"Fig. 8 cycle increase, no technique", none9b / n, 31.9, 23.0},
        {"Fig. 8 cycle increase, RegMutex", rmx9b / n, 10.4, 9.0},
        {"Fig. 9a cycle reduction, OWF", owf9a / n, 2.0, 1.9},
        {"Fig. 9a cycle reduction, RFV", rfv9a / n, 15.0, 16.2},
        {"Fig. 9a cycle reduction, RegMutex", rmx9a / n, 13.1, 12.8},
        {"Fig. 9b cycle increase, no technique", none9b / n, 31.9, 22.9},
        {"Fig. 9b cycle increase, OWF", owf9b / n, 30.3, 20.6},
        {"Fig. 9b cycle increase, RFV", rfv9b / n, 7.2, 5.9},
        {"Fig. 9b cycle increase, RegMutex", rmx9b / n, 10.4, 10.8},
    };
}

/**
 * Print the averages beside EXPERIMENTS.md and the paper; false when a
 * recomputed average no longer rounds to the recorded one.
 */
bool
reportFigureAverages(const std::map<std::string, rm::SimStats> &stats,
                     std::vector<std::string> &notes)
{
    bool all_match = true;
    for (const FigureClaim &c : figureClaims(stats)) {
        const double pct = std::round(c.measured * 1000.0) / 10.0;
        const bool match = std::abs(pct - c.experiments) < 0.05;
        all_match = all_match && match;
        std::ostringstream line;
        line.setf(std::ios::fixed);
        line.precision(1);
        line << c.label << ": " << pct << "% (EXPERIMENTS.md "
             << c.experiments << "%, paper " << c.paper << "%)"
             << (match ? "" : "  MISMATCH");
        notes.push_back(line.str());
    }
    return all_match;
}

/**
 * Per-cell layer breakdown: the work runSweep does for one cell
 * (compile, lint gate, simulate, export), called one public function
 * at a time on one thread so each layer gets its own span.
 */
struct Decomposed
{
    std::vector<std::string> policies;
    std::vector<int> simSpans;
    std::vector<rm::SimStats> stats;
    std::int64_t findings = 0;
    std::int64_t addedInsts = 0;
    int rmxCompiles = 0;
    int rmxEnabled = 0;
    std::uint64_t staticInsts = 0;
};

Decomposed
decomposedPass(const std::vector<rm::SweepCase> &grid,
               const std::map<std::string, rm::SimStats> &expected,
               Tracer &tracer, RunReport &report)
{
    Decomposed d;
    Scope pass_span(&tracer, "op/decomposed-pass");
    std::map<std::string, rm::Program> programs;
    for (const rm::SweepCase &c : grid) {
        if (programs.count(c.workload))
            continue;
        Scope span(&tracer, "workloads/buildWorkload", pass_span.spanId());
        programs.emplace(c.workload, rm::buildWorkload(c.workload));
        d.staticInsts += programs.at(c.workload).size();
    }
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const rm::SweepCase &c = grid[i];
        const int op = static_cast<int>(i);
        const rm::PolicySpec &policy =
            rm::PolicyRegistry::instance().at(c.policy);
        const rm::Program &program = programs.at(c.workload);
        Scope cell(&tracer, "op/cell", pass_span.spanId(), op);
        bool ok = true;
        std::string why;
        try {
            rm::PolicyCompile compiled;
            {
                Scope span(&tracer, "compiler/PolicySpec::compile",
                           cell.spanId(), op);
                compiled = policy.compile(program, c.config, c.compileOptions);
            }
            d.addedInsts += static_cast<std::int64_t>(compiled.program.size()) -
                            static_cast<std::int64_t>(program.size());
            if (compiled.compile) {
                ++d.rmxCompiles;
                d.rmxEnabled += compiled.compile->enabled() ? 1 : 0;
            }

            rm::LintOptions lint_options;
            lint_options.config = &c.config;
            lint_options.disabledChecks = policy.lintSuppressions;
            {
                Scope span(&tracer, "analysis/runLints", cell.spanId(), op);
                const rm::LintReport lint =
                    rm::runLints(compiled.program, lint_options);
                d.findings +=
                    static_cast<std::int64_t>(lint.diagnostics.size());
                ok = lint.clean();
            }

            rm::GpuResult result;
            int sim_span = -1;
            {
                Scope span(&tracer, "sim/simulateGpu", cell.spanId(), op);
                sim_span = span.spanId();
                result = rm::simulateGpu(
                    c.config, compiled.program,
                    timedAllocator(policy, &tracer, sim_span, op), {});
            }
            {
                Scope span(&tracer, "obs/statsJsonRoundTrip", cell.spanId(),
                           op);
                const auto it = expected.find(cellKey(c));
                ok = ok && it != expected.end() &&
                     statsMatch(result.aggregate, it->second, &why);
            }
            if (ok) {
                d.policies.push_back(c.policy);
                d.simSpans.push_back(sim_span);
                d.stats.push_back(result.aggregate);
            }
        } catch (const std::exception &e) {
            ok = false;
            why = std::string("threw: ") + e.what();
        }
        report.check(ok, cellKey(c) + " (called layer by layer): " + why);
    }
    return d;
}

double
idleSlotFrac(const rm::SimStats &s)
{
    const double slots =
        static_cast<double>(s.issuedSlots + s.idleSchedulerSlots);
    return slots == 0 ? 0.0 : static_cast<double>(s.idleSchedulerSlots) / slots;
}

} // namespace

void
addSimCosts(Layers &layers, const std::vector<SimCost> &costs)
{
    std::map<std::string, std::pair<double, double>> per_policy;  // ns, cycles
    std::vector<double> idle;
    for (const SimCost &c : costs)
        idle.push_back(idleSlotFrac(c.stats));
    const double idle_median = median(idle);
    double hi_ns = 0, hi_cycles = 0, lo_ns = 0, lo_cycles = 0;
    double ns = 0, insts = 0;
    double attempts = 0, successes = 0, ext = 0, rmx_insts = 0;
    for (std::size_t i = 0; i < costs.size(); ++i) {
        const SimCost &c = costs[i];
        per_policy[c.policy].first += c.hostNs;
        per_policy[c.policy].second += c.smCycles;
        const bool hi = idle[i] > idle_median;
        (hi ? hi_ns : lo_ns) += c.hostNs;
        (hi ? hi_cycles : lo_cycles) += c.smCycles;
        ns += c.hostNs;
        insts += static_cast<double>(c.stats.instructions);
        if (c.policy == "regmutex") {
            attempts += static_cast<double>(c.stats.acquireAttempts);
            successes += static_cast<double>(c.stats.acquireSuccesses);
            ext += static_cast<double>(c.stats.extRegAccesses);
            rmx_insts += static_cast<double>(c.stats.instructions);
        }
    }
    for (const auto &[policy, t] : per_policy)
        layers.nsPerCycle[policy] = t.second == 0 ? 0.0 : t.first / t.second;
    layers.nsPerCycleIdleHi = hi_cycles == 0 ? 0.0 : hi_ns / hi_cycles;
    layers.nsPerCycleIdleLo = lo_cycles == 0 ? 0.0 : lo_ns / lo_cycles;
    layers.idleSlotFrac = idle_median;
    layers.nsPerInst = insts == 0 ? 0.0 : ns / insts;
    layers.acquireSuccessRate = attempts == 0 ? 1.0 : successes / attempts;
    layers.extAccessesPerInst = rmx_insts == 0 ? 0.0 : ext / rmx_insts;
}

RunReport
runFigures(const RunContext &ctx)
{
    RunReport report;
    const std::map<std::string, rm::SimStats> expected =
        loadStatsMap(ctx.expectedDir + "/figures.json", "cells");
    const std::vector<rm::SweepCase> grid = figureGrid();
    if (grid.size() != expected.size())
        throw std::runtime_error("figures: grid has " +
                                 std::to_string(grid.size()) +
                                 " cells, expected outputs have " +
                                 std::to_string(expected.size()));

    int pass_index = 0;
    auto pass = [&](Tracer *tracer) {
        FiguresPass p = runFiguresPass(
            grid, expected, deriveSeed(ctx.seed, kOrderRole, pass_index++),
            ctx.threads, tracer);
        report.attempted += p.cells;
        report.failed += p.failed;
        for (const std::string &e : p.errors)
            report.notes.push_back("FAILED " + e);
        return p;
    };

    // The warm-up pass is the cold first regeneration, part of set-up.
    const bool tracing = closedLoop(
        ctx, report,
        [&] {
            const FiguresPass warm = pass(nullptr);
            if (warm.failed == 0)
                report.extraChecksPassed =
                    reportFigureAverages(warm.stats, report.notes);
            return PassShape{warm.cells, warm.instructions};
        },
        [&] {
            const double seconds = pass(nullptr).seconds;
            return TimedPass{seconds, {seconds}};
        },
        "figures-pass");
    if (!tracing)
        return report;

    // Traced run. (1) Untraced and traced passes alternate for half the
    // budget; their ratio is the tracer's own cost.
    const std::int64_t traced_start = nowNs();
    Tracer tracer;
    std::vector<double> plain, traced;
    while (secondsSince(traced_start) < ctx.seconds / 2 || traced.size() < 3) {
        plain.push_back(pass(nullptr).seconds);
        traced.push_back(pass(&tracer).seconds);
    }
    const double untraced_pass = median(plain);

    // (2) The same cells one layer at a time on one thread, twice; the
    // second pass is the one whose simulations are costed.
    Decomposed d;
    for (int rep = 0; rep < 2; ++rep)
        d = decomposedPass(grid, expected, tracer, report);

    // (3) runSweep on one thread, for the parallel speed-up.
    const std::int64_t serial_start = nowNs();
    {
        rm::SweepOptions options;
        options.threads = 1;
        const std::vector<rm::SweepResult> serial = rm::runSweep(grid, options);
        for (std::size_t i = 0; i < serial.size(); ++i)
            report.check(serial[i].ok() &&
                             statsMatch(serial[i].stats(),
                                        expected.at(cellKey(grid[i])),
                                        nullptr),
                         cellKey(grid[i]) + " (one-thread runSweep)");
    }
    const double serial_pass = secondsSince(serial_start);

    const std::vector<Span> spans = tracer.spans();
    const std::vector<std::int64_t> self = selfTimes(spans);
    const auto totals = totalsByName(spans);
    std::vector<SimCost> costs;
    for (std::size_t i = 0; i < d.stats.size(); ++i)
        costs.push_back({d.policies[i],
                         static_cast<double>(self.at(
                             static_cast<std::size_t>(d.simSpans[i]))),
                         static_cast<double>(d.stats[i].cycles), d.stats[i]});

    Layers layers;
    addSimCosts(layers, costs);
    layers.buildMs = meanSelfMs(totals, "workloads/buildWorkload");
    layers.staticInsts = static_cast<double>(d.staticInsts);
    layers.compileMs = meanSelfMs(totals, "compiler/PolicySpec::compile");
    layers.addedInsts = static_cast<double>(d.addedInsts);
    layers.enabledFrac = d.rmxCompiles == 0
                             ? 0.0
                             : static_cast<double>(d.rmxEnabled) / d.rmxCompiles;
    layers.lintMs = meanSelfMs(totals, "analysis/runLints");
    layers.findings = static_cast<double>(d.findings);
    layers.regmutexPrepareMs =
        meanSelfMs(totals, "regmutex/PolicySpec::allocator");
    layers.baselinesPrepareMs =
        meanSelfMs(totals, "baselines/PolicySpec::allocator");
    layers.runMs = meanSelfMs(totals, "sim/simulateGpu");
    std::tie(layers.gmemInitMs, layers.gmemDigestMs) = globalMemoryCosts();
    layers.sweepSpeedup = serial_pass / untraced_pass;
    // A cell's share of a parallel pass, less the time its layers take
    // when called directly: what runSweep itself adds per cell.
    const NameTotals &cell = totals.at("op/cell");
    layers.sweepOverheadMs =
        untraced_pass * 1e3 * ctx.threads / static_cast<double>(grid.size()) -
        static_cast<double>(cell.totalNs) * 1e-6 /
            static_cast<double>(cell.calls);
    layers.statsJsonUs = meanSelfMs(totals, "obs/statsJsonRoundTrip") * 1e3;
    layers.traceOverheadFrac = median(traced) / untraced_pass - 1.0;
    addLayers(report, layers);

    if (!ctx.spansPath.empty())
        tracer.write(ctx.spansPath);
    return report;
}

} // namespace perfbench

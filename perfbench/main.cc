/**
 * @file
 * rm_perfbench: the benchmark's measuring process. run.py builds and
 * drives it; see README.md.
 *
 *   rm_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                --expected DIR [--threads N] [--spawn-ns T]
 *                [--setup-only] [--spans PATH]
 *   rm_perfbench --generate-expected DIR [--threads N]
 *   rm_perfbench --self-test --expected DIR [--threads N]
 *
 * The last line of a measuring run is one JSON object with the op
 * counts, the correctness verdict and every metric with its unit.
 * Exit status: 0 ok, 1 a check failed, 2 usage or set-up error.
 */

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/export.hh"
#include "obs/json.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "rm_perfbench: " << error << "\n"
              << "usage: rm_perfbench --workload figures|machine-preempt|"
                 "compile-verify --seed N --seconds S --trace 0|1 "
                 "--expected DIR [--threads N] [--spawn-ns T] "
                 "[--setup-only] [--spans PATH]\n"
              << "       rm_perfbench --generate-expected DIR [--threads N]\n"
              << "       rm_perfbench --self-test --expected DIR "
                 "[--threads N]\n";
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    try {
        std::size_t used = 0;
        const unsigned long long v = std::stoull(text, &used, 10);
        if (used == text.size() && text.find('-') == std::string::npos)
            return v;
    } catch (const std::exception &) {
    }
    usage(flag + " needs a non-negative integer, got '" + text + "'");
}

std::string
formatValue(double value)
{
    std::ostringstream out;
    out << std::setprecision(std::numeric_limits<double>::max_digits10)
        << value;
    return out.str();
}

/** The result line: op counts, verdict and every metric with its unit. */
std::string
resultLine(const RunReport &report)
{
    const bool correct =
        report.failed == 0 && report.attempted > 0 && report.extraChecksPassed;
    std::ostringstream json;
    json << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << report.attempted
         << ", \"failed\": " << report.failed
         << ", \"setup_s\": " << formatValue(report.setupSeconds)
         << ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : report.metrics) {
        if (!std::isfinite(m.value))
            throw std::runtime_error("metric " + m.name + " is not finite");
        json << (first ? "" : ", ") << "\"" << m.name
             << "\": {\"value\": " << formatValue(m.value)
             << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    json << "}}";
    return json.str();
}

// ------------------------------------------------------ expected outputs

void
writeMap(const std::string &path, const std::string &member,
         const std::vector<std::pair<std::string, rm::SimStats>> &entries)
{
    std::ofstream out(path);
    out << "{\"format\": 1, \"" << member << "\": {\n";
    for (std::size_t i = 0; i < entries.size(); ++i)
        out << rm::JsonWriter().value(entries[i].first).take() << ": "
            << rm::statsToJson(entries[i].second)
            << (i + 1 < entries.size() ? ",\n" : "\n");
    out << "}}\n";
    if (!out)
        throw std::runtime_error("cannot write " + path);
    std::cout << "wrote " << entries.size() << " entries to " << path << "\n";
}

/** Write figures.json and machine_preempt.json into @p dir. */
void
writeExpected(const std::string &dir, int threads)
{
    const std::vector<rm::SweepCase> grid = figureGrid();
    rm::SweepOptions options;
    options.threads = threads;
    const std::vector<rm::SweepResult> results = rm::runSweep(grid, options);
    std::vector<std::pair<std::string, rm::SimStats>> cells;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok())
            throw std::runtime_error(cellKey(grid[i]) + ": " +
                                     results[i].error);
        cells.emplace_back(cellKey(grid[i]), results[i].stats());
    }
    writeMap(dir + "/figures.json", "cells", cells);

    // Uninterrupted full-machine runs on the streaming engine path.
    std::vector<std::pair<std::string, rm::SimStats>> runs;
    for (const MachineCase &mc : machineCases("")) {
        const rm::GpuConfig config = rm::gtx480Config();
        const rm::PolicyCompile compiled =
            mc.spec->compile(mc.program, config, {});
        rm::GpuOptions gpu;
        gpu.mode = rm::GpuOptions::Mode::FullMachine;
        gpu.threads = threads;
        const rm::GpuResult r =
            rm::simulateGpu(config, compiled.program, mc.spec->allocator, gpu);
        runs.emplace_back(mc.key, r.aggregate);
        for (int sm = 0; sm < r.numSms(); ++sm)
            runs.emplace_back(mc.key + "/sm" + std::to_string(sm),
                              r.perSm[static_cast<std::size_t>(sm)]);
    }
    writeMap(dir + "/machine_preempt.json", "runs", runs);
}

// ------------------------------------------------------------ self-test

int failures = 0;

void
expect(bool condition, const std::string &what)
{
    std::cout << (condition ? "ok   " : "FAIL ") << what << "\n";
    failures += condition ? 0 : 1;
}

int
selfTest(const RunContext &ctx)
{
    // Tail percentile: the highest one with ten samples beyond it.
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    const Tail t100 = tailOf(hundred);
    expect(t100.percentile == 90 && t100.value == 90 && t100.beyond == 10 &&
               t100.samples == 100,
           "tail of 100 samples is p90 with 10 beyond");
    std::vector<double> thirty_six(hundred.begin(), hundred.begin() + 36);
    const Tail t36 = tailOf(thirty_six);
    expect(t36.percentile == 72 && t36.value == 26 && t36.beyond == 10,
           "tail of 36 samples is p72 (rank 26)");
    std::vector<double> fifteen(hundred.rbegin(), hundred.rbegin() + 15);
    const Tail t15 = tailOf(fifteen);
    expect(t15.percentile == 50 && t15.value == 93 && t15.beyond == 7,
           "tail of 15 samples falls back to the median, 7 beyond");

    // A stall that fills one block's tail does not move a long run's.
    std::vector<double> run;
    for (int i = 0; i < 5000; ++i)
        run.push_back(i % 100 + 1);
    for (int i = 2000; i < 2150; ++i)
        run[static_cast<std::size_t>(i)] = 1000;
    const Tail stalled = runTail(run);
    expect(tailOf(run).value == 1000 && stalled.value == 99 &&
               stalled.percentile == 99 && stalled.blocks == 5 &&
               stalled.beyond == 10 && stalled.samples == 5000,
           "a long run's tail is the median of five block p99s");
    expect(runTail(hundred).value == t100.value && runTail(hundred).blocks == 1,
           "a short run's tail is the plain tail");

    // Self time: overlapping children count once, overhangs are clipped,
    // grandchildren only reduce their own parent.
    std::vector<Span> spans(5);
    spans[0] = {0, -1, 0, "parent", 0, 100};
    spans[1] = {1, 0, 0, "child", 10, 30};
    spans[2] = {2, 0, 0, "child", 20, 50};
    spans[3] = {3, 0, 0, "child", 90, 120};
    spans[4] = {4, 1, 0, "grandchild", 12, 18};
    const std::vector<std::int64_t> self = selfTimes(spans);
    expect(self[0] == 50 && self[1] == 14 && self[2] == 30 &&
               self[3] == 30 && self[4] == 6,
           "self time subtracts the union of direct children");
    const auto totals = totalsByName(spans);
    expect(totals.at("child").calls == 3 && totals.at("child").selfNs == 74,
           "per-name totals add self time across calls");

    // A planted stats mismatch is a failed op and lowers pass_rate.
    const std::map<std::string, rm::SimStats> expected =
        loadStatsMap(ctx.expectedDir + "/figures.json", "cells");
    const std::vector<rm::SweepCase> all = figureGrid();
    const std::vector<rm::SweepCase> grid(all.begin(), all.begin() + 8);
    std::map<std::string, rm::SimStats> planted = expected;
    planted.at(cellKey(grid[3])).cycles += 1;
    const FiguresPass bad = runFiguresPass(grid, planted, 1, ctx.threads,
                                           nullptr);
    RunReport report;
    report.attempted = bad.cells;
    report.failed = bad.failed;
    EndToEnd e2e;
    e2e.opsPerPass = bad.cells;
    e2e.passSeconds = {bad.seconds};
    e2e.latencies = {bad.seconds};
    addEndToEnd(report, e2e, "self-test");
    double pass_rate = 1.0;
    for (const Metric &m : report.metrics)
        if (m.name == "pass_rate")
            pass_rate = m.value;
    expect(bad.failed == 1 && bad.errors.size() == 1 &&
               bad.errors[0].rfind(cellKey(grid[3]), 0) == 0,
           "a planted mismatch fails exactly its cell");
    expect(pass_rate < 1.0, "a planted mismatch lowers pass_rate");

    // Seeds only reorder figures cells: results match for any order.
    const FiguresPass a = runFiguresPass(grid, expected, deriveSeed(1, kOrderRole, 0),
                                         ctx.threads, nullptr);
    const FiguresPass b = runFiguresPass(grid, expected, deriveSeed(2, kOrderRole, 0),
                                         ctx.threads, nullptr);
    expect(permutation(grid.size(), deriveSeed(1, kOrderRole, 0)) !=
               permutation(grid.size(), deriveSeed(2, kOrderRole, 0)),
           "two seeds submit the cells in different orders");
    expect(a.failed == 0 && b.failed == 0 && a.stats == b.stats,
           "figures cells are identical under two seeds");

    // ... and only move the preemption point of a machine run.
    const std::vector<MachineCase> cases =
        machineCases(ctx.expectedDir + "/machine_preempt.json");
    const MachineCase &mc = cases.front();
    const std::uint64_t c1 = preemptCycle(mc, 1, 0);
    const std::uint64_t c2 = preemptCycle(mc, 2, 0);
    const MachineOutcome r1 = runMachine(mc, c1, true, ctx.threads, nullptr, 0);
    const MachineOutcome r2 = runMachine(mc, c2, true, ctx.threads, nullptr, 0);
    expect(c1 != c2, "two seeds preempt at different cycles");
    expect(r1.ok && r2.ok && r1.captures == 3 && r2.captures == 3,
           "preempted runs resume to the uninterrupted result under two "
           "seeds (" + r1.why + r2.why + ")");

    // An op that throws fails alone; the run still ends with a result.
    rm::PolicySpec throwing = rm::PolicyRegistry::instance().at("regmutex");
    throwing.name = "planted-throw";
    throwing.compile = [](const rm::Program &, const rm::GpuConfig &,
                          const rm::CompileOptions &) -> rm::PolicyCompile {
        throw std::runtime_error("planted compile failure");
    };
    const std::vector<VerifyKernel> kernels = verifyKernels(1, nullptr);
    const std::vector<VerifyKernel> one(kernels.begin(), kernels.begin() + 1);
    RunReport verdicts;
    runVerdictPass(one, {&rm::PolicyRegistry::instance().at("regmutex"),
                         &throwing},
                   ctx.threads, nullptr, 0, verdicts);
    const std::string line = resultLine(verdicts);
    expect(verdicts.attempted == 2 && verdicts.failed == 1 &&
               line.find("\"correct\": false") != std::string::npos &&
               line.find("\"failed\": 1,") != std::string::npos,
           "a throwing verdict is one failed op in a printed result");
    // The engine calls the allocator factory from its pool threads.
    rm::PolicySpec throwing_sm = rm::PolicyRegistry::instance().at("baseline");
    throwing_sm.allocator = [](const rm::GpuConfig &,
                               const rm::Program &) -> rm::PreparedAllocator {
        throw std::runtime_error("planted allocator failure");
    };
    MachineCase planted_case = mc;
    planted_case.spec = &throwing_sm;
    const MachineOutcome thrown =
        runMachine(planted_case, c1, true, ctx.threads, nullptr, 0);
    expect(!thrown.ok && thrown.why.find("planted") != std::string::npos,
           "a throwing full-machine run is a failed op (" + thrown.why + ")");

    std::cout << (failures == 0 ? "self-test passed" : "self-test FAILED")
              << "\n";
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    RunContext ctx;
    ctx.mainStartNs = nowNs();
    std::string generate;
    bool self_test = false;
    bool trace_set = false;
    ctx.threads = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(flag + " needs a value");
            return argv[++i];
        };
        if (flag == "--workload")
            ctx.workload = next();
        else if (flag == "--seed")
            ctx.seed = parseUnsigned(flag, next());
        else if (flag == "--seconds")
            ctx.seconds = static_cast<double>(parseUnsigned(flag, next()));
        else if (flag == "--trace") {
            const std::string v = next();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            ctx.trace = v == "1";
            trace_set = true;
        } else if (flag == "--threads")
            ctx.threads = static_cast<int>(parseUnsigned(flag, next()));
        else if (flag == "--expected")
            ctx.expectedDir = next();
        else if (flag == "--spawn-ns")
            ctx.spawnNs = static_cast<std::int64_t>(parseUnsigned(flag, next()));
        else if (flag == "--setup-only")
            ctx.setupOnly = true;
        else if (flag == "--spans")
            ctx.spansPath = next();
        else if (flag == "--generate-expected")
            generate = next();
        else if (flag == "--self-test")
            self_test = true;
        else
            usage("unknown argument '" + flag + "'");
    }
    if (ctx.threads < 1)
        usage("--threads must be at least 1");

    try {
        if (!generate.empty()) {
            writeExpected(generate, ctx.threads);
            return 0;
        }
        if (ctx.expectedDir.empty())
            usage("--expected is required");
        if (self_test)
            return selfTest(ctx);
        if (!trace_set)
            usage("--trace is required");

        RunReport report;
        if (ctx.workload == "figures")
            report = runFigures(ctx);
        else if (ctx.workload == "machine-preempt")
            report = runMachinePreempt(ctx);
        else if (ctx.workload == "compile-verify")
            report = runCompileVerify(ctx);
        else
            usage("unknown workload '" + ctx.workload + "'");
        for (const std::string &note : report.notes)
            std::cout << note << "\n";
        std::cout << resultLine(report) << std::endl;
        return report.failed == 0 && report.extraChecksPassed ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "rm_perfbench: " << e.what() << "\n";
        return 2;
    }
}

/**
 * @file
 * Golden generator for tests/test_engine_equivalence.cc. Run from a
 * known-good build to (re)freeze the engine's observable behaviour:
 *
 *     make-engine-goldens tests/golden
 *
 * emits engine_stats.tsv (one "case-key <TAB> statsToJson" line per
 * grid cell). The committed copy was produced by the pre-refactor
 * engine: heap-of-Events, AoS SimWarp, no skip-ahead.
 * test_engine_equivalence.cc replays the same grid on the current
 * engine and demands bit-identical SimStats, so any accidental
 * behaviour change in an engine rewrite fails loudly against history
 * rather than silently redefining truth.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "obs/export.hh"
#include "sim/config.hh"
#include "workloads/suite.hh"

namespace {

/** The fault plan every policy is replayed under (mirrors the test). */
rm::FaultPlan
goldenFaultPlan()
{
    rm::FaultPlan plan;
    plan.denyAcquire = {1000, 3000};
    plan.memSpike = {500, 2500};
    plan.memSpikeFactor = 4;
    return plan;
}

struct Case
{
    std::string key;
    std::string workload;
    std::string policy;
    bool faulted = false;
    bool fullMachine = false;  // 4 SMs, gridCtas = 13
};

/** The equivalence grid. Keep in sync with test_engine_equivalence.cc. */
std::vector<Case>
goldenCases()
{
    std::vector<Case> cases;
    const std::vector<std::string> policies = {"baseline", "regmutex",
                                               "paired", "owf", "rfv"};
    for (const std::string &policy : policies) {
        cases.push_back({"BFS/" + policy + "/rep/clean", "BFS", policy,
                         false, false});
        cases.push_back({"BFS/" + policy + "/rep/faulted", "BFS", policy,
                         true, false});
    }
    for (const std::string &policy : {std::string("regmutex"),
                                      std::string("rfv")}) {
        cases.push_back({"BFS/" + policy + "/full4/clean", "BFS", policy,
                         false, true});
    }
    cases.push_back({"SPMV/baseline/rep/clean", "SPMV", "baseline",
                     false, false});
    cases.push_back({"SPMV/regmutex/rep/clean", "SPMV", "regmutex",
                     false, false});
    return cases;
}

rm::PolicyRun
runCase(const Case &c)
{
    rm::Program program = rm::buildWorkload(c.workload);
    rm::GpuConfig config = rm::gtx480Config();
    rm::RunOptions options;
    if (c.fullMachine) {
        program.info.gridCtas = 13;  // uneven share across 4 SMs
        config.numSms = 4;
        options.gpu.mode = rm::GpuOptions::Mode::FullMachine;
    }
    if (c.faulted)
        options.gpu.fault = goldenFaultPlan();
    return rm::runPolicy(c.policy, program, config, options);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::cerr << "usage: make-engine-goldens GOLDEN_DIR\n";
        return 2;
    }
    const std::string dir = argv[1];

    std::ofstream tsv(dir + "/engine_stats.tsv");
    if (!tsv) {
        std::cerr << "cannot write " << dir << "/engine_stats.tsv\n";
        return 1;
    }
    for (const Case &c : goldenCases()) {
        const rm::PolicyRun run = runCase(c);
        if (!run.result.completed()) {
            std::cerr << c.key << ": did not complete\n";
            return 1;
        }
        tsv << c.key << '\t' << rm::statsToJson(run.stats()) << '\n';
        std::cout << c.key << ": cycles=" << run.stats().cycles << '\n';
    }
    return 0;
}

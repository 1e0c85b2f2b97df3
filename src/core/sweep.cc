#include "core/sweep.hh"

#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "analysis/lint.hh"
#include "common/thread_pool.hh"
#include "core/checkpoint.hh"
#include "sim/snapshot.hh"
#include "workloads/suite.hh"

namespace rm {

const char *
sweepStatusName(SweepStatus status)
{
    switch (status) {
      case SweepStatus::Ok:
        return "ok";
      case SweepStatus::CompileFailed:
        return "compile-failed";
      case SweepStatus::LintFailed:
        return "lint-failed";
      case SweepStatus::SimFailed:
        return "sim-failed";
      case SweepStatus::Deadlocked:
        return "deadlocked";
    }
    return "unknown";
}

namespace {

std::string
exceptionMessage(const std::exception &e)
{
    return e.what() ? std::string(e.what()) : std::string("unknown error");
}

/** Report a bench usage error and exit 2. */
[[noreturn]] void
sweepUsageError(const char *program, const std::string &message)
{
    std::cerr << program << ": " << message << "\nusage: " << program
              << " [--sms N] [--threads N] [--checkpoint PATH]"
                 " [--sanitize] [--no-lint] [--json PATH]\n";
    std::exit(2);
}

} // namespace

std::string
sweepCaseKey(const SweepCase &spec)
{
    const CompileOptions &o = spec.compileOptions;
    const FaultPlan &f = spec.fault;
    std::ostringstream os;
    os << spec.workload << '|' << spec.policy << '|' << spec.arch << '|'
       << std::hex << gpuConfigDigest(spec.config) << std::dec
       << '|' << o.forcedEs << ',' << o.enableCompaction << ','
       << o.enableRepair << ',' << o.maxRepairIterations << ','
       << static_cast<int>(o.tieBreak) << ',' << o.coalesceGap
       << '|' << f.seed << ',' << f.denyAcquire.from << ','
       << f.denyAcquire.until << ',' << f.denyAcquireChance << ','
       << f.delayRelease.from << ',' << f.delayRelease.until << ','
       << f.releaseDelayCycles << ',' << f.shrinkSrpAtCycle << ','
       << f.shrinkSrpSections << ',' << f.memSpike.from << ','
       << f.memSpike.until << ',' << f.memSpikeFactor << ','
       << f.corruptStateAtCycle << ',' << spec.faultSm;
    return os.str();
}

std::vector<SweepResult>
runSweep(const std::vector<SweepCase> &cases, const SweepOptions &options)
{
    // Build each distinct workload once, serially, before fanning out:
    // the builders share no state with the simulation but this keeps
    // the parallel phase allocation-light. A workload that fails to
    // build poisons only the cells that reference it.
    std::map<std::string, Program> programs;
    std::map<std::string, std::string> workloadErrors;
    for (const SweepCase &c : cases) {
        if (programs.count(c.workload) || workloadErrors.count(c.workload))
            continue;
        try {
            programs.emplace(c.workload, buildWorkload(c.workload));
        } catch (const std::exception &e) {
            workloadErrors.emplace(c.workload, exceptionMessage(e));
        }
    }
    // Resolve every policy up front for the same reason; the returned
    // spec references stay valid for the registry's lifetime. Unknown
    // policies poison only their own cells.
    std::map<std::string, const PolicySpec *> policies;
    std::map<std::string, std::string> policyErrors;
    for (const SweepCase &c : cases) {
        if (policies.count(c.policy) || policyErrors.count(c.policy))
            continue;
        try {
            policies.emplace(c.policy,
                             &PolicyRegistry::instance().at(c.policy));
        } catch (const std::exception &e) {
            policyErrors.emplace(c.policy, exceptionMessage(e));
        }
    }

    JsonlCheckpoint checkpoint(options.checkpointPath);

    std::vector<SweepResult> results(cases.size());
    parallelFor(
        static_cast<int>(cases.size()),
        [&](int i) {
            const SweepCase &c = cases[static_cast<std::size_t>(i)];
            SweepResult &out = results[static_cast<std::size_t>(i)];
            out.spec = c;

            if (const auto it = workloadErrors.find(c.workload);
                it != workloadErrors.end()) {
                out.status = SweepStatus::CompileFailed;
                out.error = "workload '" + c.workload +
                            "' failed to build: " + it->second;
                return;
            }
            if (const auto it = policyErrors.find(c.policy);
                it != policyErrors.end()) {
                out.status = SweepStatus::CompileFailed;
                out.error = it->second;
                return;
            }

            const PolicySpec &policy = *policies.at(c.policy);
            try {
                out.compile = policy.compile(programs.at(c.workload),
                                             c.config, c.compileOptions);
            } catch (const std::exception &e) {
                out.status = SweepStatus::CompileFailed;
                out.error = exceptionMessage(e);
                return;
            }

            // Static gate: never hand the engine a program the lint
            // suite can already prove broken (a held barrier would
            // simulate for millions of cycles before deadlocking).
            if (options.lint) {
                LintOptions lint_options;
                lint_options.config = &c.config;
                lint_options.disabledChecks = policy.lintSuppressions;
                try {
                    const LintReport lint =
                        runLints(out.compile.program, lint_options);
                    if (!lint.clean()) {
                        out.status = SweepStatus::LintFailed;
                        for (const Diagnostic &d : lint.diagnostics) {
                            if (d.severity != LintSeverity::Error)
                                continue;
                            out.error =
                                "lint: " + renderDiagnostic(
                                               out.compile.program, d);
                            break;
                        }
                        return;
                    }
                } catch (const std::exception &e) {
                    out.status = SweepStatus::LintFailed;
                    out.error = "lint: " + exceptionMessage(e);
                    return;
                }
            }

            const std::string key = sweepCaseKey(c);
            if (const SimStats *restored = checkpoint.find(key)) {
                out.run.aggregate = *restored;
                out.fromCheckpoint = true;
                return;
            }

            GpuOptions gpu = options.gpu;
            // Per-run state never reaches a sweep's (parallel) cells:
            // not the caller's observability sinks, and no engine
            // snapshots, since the checkpoint is the sweep's only
            // durable record.
            gpu.obs = ObsSinks{};
            gpu.sinksForSm = nullptr;
            gpu.resume = nullptr;
            gpu.snapshotSink = nullptr;
            gpu.snapshotEvery = 0;
            gpu.fault = c.fault;
            gpu.faultSm = c.faultSm;
            try {
                out.run = simulateGpu(c.config, out.compile.program,
                                      policy.allocator, gpu);
            } catch (const SimulationError &e) {
                out.status = SweepStatus::Deadlocked;
                out.error = exceptionMessage(e);
                out.diagnosis = e.diagnosis();
                return;
            } catch (const std::exception &e) {
                out.status = SweepStatus::SimFailed;
                out.error = exceptionMessage(e);
                return;
            }
            if (!out.run.completed()) {
                out.status = SweepStatus::SimFailed;
                out.error = std::string("preempted: ") +
                            preemptReasonName(out.run.preemptReason);
                return;
            }
            if (out.run.aggregate.deadlocked) {
                out.status = SweepStatus::Deadlocked;
                out.diagnosis = out.run.aggregate.hang;
                out.error = out.diagnosis
                                ? out.diagnosis->summary()
                                : "simulation declared a deadlock";
                return;
            }
            checkpoint.record(key, out.run.aggregate);
        },
        options.threads);
    return results;
}

int
reportSweepFailures(const std::vector<SweepResult> &results,
                    std::ostream &out)
{
    int failed = 0;
    for (const SweepResult &r : results)
        failed += r.ok() ? 0 : 1;
    if (failed == 0)
        return 0;
    out << "sweep: " << failed << " of " << results.size()
        << " cells failed\n"
        << "  workload      policy        arch      status          "
           "error\n";
    for (const SweepResult &r : results) {
        if (r.ok())
            continue;
        // First line of the error only: hang summaries are paragraphs.
        std::string brief = r.error;
        if (const auto nl = brief.find('\n'); nl != std::string::npos)
            brief.resize(nl);
        std::ostringstream row;
        row << "  " << r.spec.workload;
        for (std::size_t n = r.spec.workload.size(); n < 14; ++n)
            row << ' ';
        row << r.spec.policy;
        for (std::size_t n = r.spec.policy.size(); n < 14; ++n)
            row << ' ';
        row << r.spec.arch;
        for (std::size_t n = r.spec.arch.size(); n < 10; ++n)
            row << ' ';
        const std::string status = sweepStatusName(r.status);
        row << status;
        for (std::size_t n = status.size(); n < 16; ++n)
            row << ' ';
        row << brief;
        out << row.str() << '\n';
    }
    return failed;
}

std::vector<SweepCase>
sweepGrid(const std::vector<std::string> &workloads,
          const std::vector<std::string> &policies,
          const std::vector<std::pair<std::string, GpuConfig>> &configs,
          const CompileOptions &compile_options)
{
    std::vector<SweepCase> grid;
    grid.reserve(workloads.size() * policies.size() * configs.size());
    for (const auto &[arch, config] : configs) {
        for (const std::string &workload : workloads) {
            for (const std::string &policy : policies) {
                SweepCase c;
                c.workload = workload;
                c.policy = policy;
                c.arch = arch;
                c.config = config;
                c.compileOptions = compile_options;
                grid.push_back(std::move(c));
            }
        }
    }
    return grid;
}

SweepCli::SweepCli(int argc, char *const *argv)
{
    auto valueAfter = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            sweepUsageError(argv[0],
                            std::string(argv[i]) + " needs a value");
        return argv[++i];
    };
    auto numberAfter = [&](int &i) {
        const std::string flag = argv[i];
        const std::string text = valueAfter(i);
        try {
            std::size_t used = 0;
            const int v = std::stoi(text, &used);
            if (used == text.size() && v >= 0)
                return v;
        } catch (const std::exception &) {
        }
        sweepUsageError(argv[0], flag + " needs a non-negative integer, "
                                        "got '" + text + "'");
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--sms") {
            sms = numberAfter(i);
            if (sms < 1)
                sweepUsageError(argv[0], "--sms needs at least 1 SM");
        } else if (arg == "--threads") {
            threads = numberAfter(i);
        } else if (arg == "--checkpoint") {
            checkpoint = valueAfter(i);
        } else if (arg == "--sanitize") {
            sanitize = true;
        } else if (arg == "--no-lint") {
            noLint = true;
        } else if (arg == "--json") {
            valueAfter(i);  // BenchReport's report path
        } else {
            sweepUsageError(argv[0], "unknown argument '" + arg + "'");
        }
    }
}

void
SweepCli::apply(GpuConfig &config, SweepOptions &options) const
{
    options.threads = threads;
    options.lint = !noLint;
    options.checkpointPath = checkpoint;
    options.gpu.control.sanitize = sanitize;
    if (sms > 1) {
        config.numSms = sms;
        options.gpu.mode = GpuOptions::Mode::FullMachine;
    }
}

} // namespace rm

#include "core/sweep.hh"

#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>

#include "analysis/lint.hh"
#include "common/errors.hh"
#include "common/logging.hh"
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
      case SweepStatus::Preempted:
        return "preempted";
    }
    return "unknown";
}

namespace {

/** FNV-1a over a serialized field string: stable across processes. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
configFingerprint(const SweepCase &spec)
{
    const GpuConfig &c = spec.config;
    const FaultPlan &f = spec.fault;
    std::ostringstream os;
    os << c.numSms << ',' << c.maxWarpsPerSm << ',' << c.maxCtasPerSm
       << ',' << c.maxThreadsPerSm << ',' << c.registersPerSm << ','
       << c.sharedMemPerSm << ',' << c.warpSize << ',' << c.numSchedulers
       << ',' << c.regAllocGranularity << ',' << c.aluLatency << ','
       << c.sfuLatency << ',' << c.sharedLatency << ',' << c.globalLatency
       << ',' << c.memIssuePerCycle << ',' << c.maxPendingMemPerWarp
       << ',' << c.rfBanks << ',' << c.modelBankConflicts << ','
       << static_cast<int>(c.schedPolicy) << ',' << c.wakeOnRelease << ','
       << c.watchdogCycles
       << '|' << spec.compileOptions.forcedEs << ','
       << spec.compileOptions.enableCompaction << ','
       << spec.compileOptions.enableRepair << ','
       << spec.compileOptions.maxRepairIterations << ','
       << static_cast<int>(spec.compileOptions.tieBreak) << ','
       << spec.compileOptions.coalesceGap
       << '|' << f.seed << ',' << f.denyAcquire.from << ','
       << f.denyAcquire.until << ',' << f.denyAcquireChance << ','
       << f.delayRelease.from << ',' << f.delayRelease.until << ','
       << f.releaseDelayCycles << ',' << f.shrinkSrpAtCycle << ','
       << f.shrinkSrpSections << ',' << f.memSpike.from << ','
       << f.memSpike.until << ',' << f.memSpikeFactor << ','
       << f.corruptStateAtCycle << ',' << spec.faultSm;
    std::ostringstream hex;
    hex << std::hex << fnv1a(os.str());
    return hex.str();
}

std::string
exceptionMessage(const std::exception &e)
{
    return e.what() ? std::string(e.what()) : std::string("unknown error");
}

} // namespace

std::string
sweepCaseKey(const SweepCase &spec)
{
    return spec.workload + "|" + spec.policy + "|" + spec.arch + "|" +
           configFingerprint(spec);
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

    JsonlCheckpoint checkpoint(options.checkpointPath,
                               options.fsyncEvery);

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
            // Observability sinks are per-run state; a sweep never
            // attaches the caller's sinks to its (parallel) cells.
            gpu.obs = ObsSinks{};
            gpu.sinksForSm = nullptr;
            gpu.fault = c.fault;
            gpu.faultSm = c.faultSm;

            // Per-cell engine snapshot: resume a previously
            // interrupted cell, and keep the file current while this
            // run makes progress.
            std::string snap_path;
            if (!options.snapshotDir.empty()) {
                std::ostringstream hex;
                hex << std::hex << fnv1a(key);
                snap_path =
                    options.snapshotDir + "/" + hex.str() + ".snap";
                if (std::ifstream probe(snap_path); probe.good()) {
                    probe.close();
                    try {
                        gpu.resume = std::make_shared<GpuSnapshot>(
                            readSnapshotFile(snap_path));
                    } catch (const std::exception &e) {
                        warn("sweep: unreadable snapshot '", snap_path,
                             "' (", exceptionMessage(e),
                             "); restarting cell fresh");
                        std::remove(snap_path.c_str());
                    }
                }
                if (gpu.snapshotEvery > 0)
                    gpu.snapshotSink =
                        [snap_path](const GpuSnapshot &snap) {
                            writeSnapshotFile(snap_path, snap);
                        };
            }

            int attempt = 0;
            while (attempt <= options.retries) {
                ++out.attempts;
                // Deterministic reseed per retry: attempt 0 reproduces
                // the un-retried sweep exactly. Retries never resume —
                // the snapshot belongs to the attempt-0 seed.
                gpu.memSeed =
                    options.gpu.memSeed +
                    static_cast<std::uint64_t>(attempt) * 0x9e3779b9ULL;
                if (attempt > 0)
                    gpu.resume = nullptr;
                try {
                    out.run = simulateGpu(c.config, out.compile.program,
                                          policy.allocator, gpu);
                } catch (const SnapshotError &e) {
                    if (gpu.resume != nullptr) {
                        // Stale snapshot (different kernel revision,
                        // architecture, seed...): discard and rerun
                        // this attempt from scratch.
                        warn("sweep: stale snapshot for '", key, "' (",
                             exceptionMessage(e),
                             "); restarting cell fresh");
                        gpu.resume = nullptr;
                        if (!snap_path.empty())
                            std::remove(snap_path.c_str());
                        --out.attempts;
                        continue;
                    }
                    out.status = SweepStatus::SimFailed;
                    out.error = exceptionMessage(e);
                    ++attempt;
                    continue;
                } catch (const SimulationError &e) {
                    out.status = SweepStatus::Deadlocked;
                    out.error = exceptionMessage(e);
                    out.diagnosis = e.diagnosis();
                    ++attempt;
                    continue;
                } catch (const std::exception &e) {
                    out.status = SweepStatus::SimFailed;
                    out.error = exceptionMessage(e);
                    ++attempt;
                    continue;
                }
                if (out.run.status == GpuResult::Status::Preempted) {
                    // Not a failure: the budget ran out. Persist the
                    // snapshot so the next sweep resumes this cell,
                    // and never burn retries on it.
                    out.status = SweepStatus::Preempted;
                    out.error =
                        std::string("preempted: ") +
                        preemptReasonName(out.run.preemptReason);
                    if (!snap_path.empty() && out.run.snapshot)
                        writeSnapshotFile(snap_path, *out.run.snapshot);
                    return;
                }
                if (out.run.aggregate.deadlocked) {
                    out.status = SweepStatus::Deadlocked;
                    out.diagnosis = out.run.aggregate.hang;
                    out.error = out.diagnosis
                                    ? out.diagnosis->summary()
                                    : "simulation declared a deadlock";
                    ++attempt;
                    continue;
                }
                out.status = SweepStatus::Ok;
                out.error.clear();
                out.diagnosis = nullptr;
                checkpoint.record(key, out.run.aggregate);
                if (!snap_path.empty())
                    std::remove(snap_path.c_str());
                return;
            }
        },
        options.threads);
    return results;
}

namespace {

void
printSweepRows(const std::vector<SweepResult> &results, SweepStatus only,
               bool invert, std::ostream &out)
{
    out << "  workload      policy        arch      status          "
           "attempts  error\n";
    for (const SweepResult &r : results) {
        if (r.ok() || (r.status == only) == invert)
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
        row << r.attempts << "         " << brief;
        out << row.str() << '\n';
    }
}

} // namespace

int
reportSweepFailures(const std::vector<SweepResult> &results,
                    std::ostream &out)
{
    int failed = 0;
    int preempted = 0;
    for (const SweepResult &r : results) {
        if (r.status == SweepStatus::Preempted)
            ++preempted;
        else if (!r.ok())
            ++failed;
    }
    if (failed > 0) {
        out << "sweep: " << failed << " of " << results.size()
            << " cells failed\n";
        printSweepRows(results, SweepStatus::Preempted, true, out);
    }
    if (preempted > 0) {
        // Preemption is the run-control budget working as designed, not
        // a failure: the snapshot carries the progress into the next
        // run with the same --snapshot-dir.
        out << "sweep: " << preempted << " of " << results.size()
            << " cells resumable (preempted with snapshot kept; rerun "
               "to finish)\n";
        printSweepRows(results, SweepStatus::Preempted, false, out);
    }
    return failed;
}

int
sweepExitStatus(const std::vector<SweepResult> &results)
{
    bool preempted = false;
    for (const SweepResult &r : results) {
        if (r.status == SweepStatus::Preempted)
            preempted = true;
        else if (!r.ok())
            return 1;
    }
    return preempted ? 3 : 0;
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
    auto numberAfter = [&](int &i, const char *flag) {
        fatalIf(i + 1 >= argc, flag, " needs a value");
        const std::string text = argv[++i];
        try {
            std::size_t used = 0;
            const int v = std::stoi(text, &used);
            if (used == text.size() && v >= 0)
                return v;
        } catch (const std::exception &) {
        }
        fatal(flag, " needs a non-negative integer, got '", text, "'");
    };
    auto u64After = [&](int &i, const char *flag) -> std::uint64_t {
        fatalIf(i + 1 >= argc, flag, " needs a value");
        const std::string text = argv[++i];
        try {
            std::size_t used = 0;
            const unsigned long long v = std::stoull(text, &used);
            if (used == text.size())
                return v;
        } catch (const std::exception &) {
        }
        fatal(flag, " needs a non-negative integer, got '", text, "'");
    };
    auto secondsAfter = [&](int &i, const char *flag) -> double {
        fatalIf(i + 1 >= argc, flag, " needs a value");
        const std::string text = argv[++i];
        try {
            std::size_t used = 0;
            const double v = std::stod(text, &used);
            if (used == text.size() && v > 0.0)
                return v;
        } catch (const std::exception &) {
        }
        fatal(flag, " needs a positive number of seconds, got '", text,
              "'");
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--sms") {
            sms = numberAfter(i, "--sms");
            fatalIf(sms < 1, "--sms needs at least 1 SM");
        } else if (arg == "--threads") {
            threads = numberAfter(i, "--threads");
        } else if (arg == "--retries") {
            retries = numberAfter(i, "--retries");
        } else if (arg == "--checkpoint") {
            fatalIf(i + 1 >= argc, "--checkpoint needs a path");
            checkpoint = argv[++i];
        } else if (arg == "--fsync-every") {
            fsyncEvery = numberAfter(i, "--fsync-every");
        } else if (arg == "--max-cycles") {
            maxCycles = u64After(i, "--max-cycles");
        } else if (arg == "--wall-deadline") {
            wallDeadlineSeconds = secondsAfter(i, "--wall-deadline");
        } else if (arg == "--sanitize") {
            sanitize = true;
        } else if (arg == "--no-lint") {
            noLint = true;
        } else if (arg == "--snapshot-every") {
            snapshotEvery = u64After(i, "--snapshot-every");
        } else if (arg == "--snapshot-dir") {
            fatalIf(i + 1 >= argc, "--snapshot-dir needs a path");
            snapshotDir = argv[++i];
        }
        // Anything else belongs to the bench (e.g. --json).
    }
}

void
SweepCli::apply(GpuConfig &config, SweepOptions &options) const
{
    options.threads = threads;
    options.retries = retries;
    options.lint = !noLint;
    options.checkpointPath = checkpoint;
    options.fsyncEvery = fsyncEvery;
    options.snapshotDir = snapshotDir;
    options.gpu.control.maxCycles = maxCycles;
    options.gpu.control.sanitize = sanitize;
    if (wallDeadlineSeconds > 0.0)
        // One deadline for the whole sweep, fixed here so every cell
        // races the same clock regardless of when it gets scheduled.
        options.gpu.control = options.gpu.control.withWallDeadlineSeconds(
            wallDeadlineSeconds);
    options.gpu.snapshotEvery = snapshotEvery;
    if (sms > 1) {
        config.numSms = sms;
        options.gpu.mode = GpuOptions::Mode::FullMachine;
    }
}

} // namespace rm

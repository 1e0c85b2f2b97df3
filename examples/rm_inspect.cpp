/**
 * @file
 * `rm-inspect` — run inspector for the observability layer: simulates
 * one workload under one allocation policy with the full metrics stack
 * attached (registry + interval sampler + issue trace) and emits the
 * machine-readable artifacts next to a human summary:
 *
 *   rm-inspect --kernel BFS --allocator regmutex \
 *       --json out.json --csv series.csv --chrome-trace out.trace.json
 *
 *   --kernel NAME|file.asm|-
 *                            workload, assembly file, or "-" for
 *                            assembly on stdin (or positional argument)
 *   --allocator P            any registered policy (core/policy.hh):
 *                            baseline|regmutex|paired|owf|rfv|...
 *   --sms N                  run the real N-SM machine; the metrics
 *                            stack instruments SM 0, the summary adds
 *                            the per-SM breakdown
 *   --threads N              cap SM-level parallelism (0 = pool width)
 *   --json PATH              stats + metrics JSON document
 *   --csv PATH               sampled time-series CSV
 *   --chrome-trace PATH      Chrome trace_event JSON; open the file in
 *                            chrome://tracing or https://ui.perfetto.dev
 *   --sample-interval N      cycles between samples (default 1000)
 *   --trace-capacity N       events the --chrome-trace ring retains
 *                            (1 to 2^24, default 1M)
 *   --pretty                 pretty-print the JSON document to stdout
 *   --lint                   run the rm-lint suite (docs/ANALYSIS.md)
 *                            on the policy's compiled program before
 *                            simulating; error findings abort the run
 *                            with exit status 4
 *   --half-rf | --es N | --lrr | --poll | --list
 *
 * Fault injection (docs/ROBUSTNESS.md; all cycles are simulated):
 *   --fault-deny-acquire FROM:UNTIL    deny SRP acquires in [FROM,UNTIL)
 *   --fault-delay-release FROM:UNTIL:DELAY
 *                            park releasing warps for DELAY cycles
 *   --fault-shrink-srp CYCLE:N   revoke N capacity units at CYCLE
 *   --fault-mem-spike FROM:UNTIL:FACTOR  multiply memory latency
 *   --fault-corrupt CYCLE    corrupt allocator state at CYCLE (pairs
 *                            with --sanitize to exercise the auditor)
 *   --fault-seed N           hash seed for probabilistic faults
 *   --watchdog N             override the watchdog budget (cycles)
 *
 * Run control and durability (docs/ROBUSTNESS.md):
 *   --max-cycles N           preempt once every SM reaches cycle N
 *   --wall-deadline SECONDS  preempt when the wall budget expires
 *   --sanitize               audit register accounting every epoch
 *   --snapshot PATH          write the engine snapshot to PATH on
 *                            preemption (and at every --snapshot-every
 *                            boundary)
 *   --snapshot-every N       refresh the snapshot every N cycles
 *   --restore PATH           resume from a snapshot written earlier
 * A preempted run prints its progress and exits with status 3; rerun
 * with --restore to continue it.
 *
 * The summary table also reports the compiled |Bs|/|Es| split (policies
 * that run the RegMutex compiler), the normalized register-file energy
 * (regmutex/energy.hh) and the cycles the engine stepped one at a time
 * rather than skipped (host work; summed over SMs, and a --restore run
 * counts only its own). A deadlocked or watchdog-expired run
 * prints the hang forensics (embedded under "hang" in the JSON
 * document) and exits nonzero.
 *
 * Exit-code contract (uniform across the --lint and --snapshot
 * flows; scripts and CI match on these):
 *   0  run completed; every requested artifact was written
 *   1  fatal failure: deadlock, watchdog expiry, I/O, or a kernel that
 *      cannot be loaded (unknown workload name, unreadable file, bad
 *      assembly)
 *   2  usage error (unknown flag, missing, malformed or out-of-range
 *      value)
 *   3  preempted by a run-control limit; snapshot kept, resumable
 *   4  the --lint static gate found error-severity findings
 *
 * See docs/OBSERVABILITY.md for the metric catalog and file formats.
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint.hh"
#include "common/errors.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/experiment.hh"
#include "core/policy.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/sampler.hh"
#include "regmutex/energy.hh"
#include "sim/gpu.hh"
#include "sim/trace.hh"
#include "workloads/suite.hh"

namespace {

int
usage()
{
    std::string policies;
    for (const std::string &name : rm::PolicyRegistry::instance().names())
        policies += (policies.empty() ? "" : "|") + name;
    std::cerr
        << "usage: rm-inspect [options] [--kernel] <workload|file.asm|->\n"
           "  --allocator " << policies << "\n"
           "  --sms N | --threads N\n"
           "  --json PATH | --csv PATH | --chrome-trace PATH\n"
           "  --sample-interval N | --trace-capacity N | --pretty\n"
           "  --lint\n"
           "  --half-rf | --es N | --lrr | --poll | --list\n"
           "  --fault-deny-acquire FROM:UNTIL\n"
           "  --fault-delay-release FROM:UNTIL:DELAY\n"
           "  --fault-shrink-srp CYCLE:N\n"
           "  --fault-mem-spike FROM:UNTIL:FACTOR\n"
           "  --fault-corrupt CYCLE\n"
           "  --fault-seed N | --watchdog N\n"
           "  --max-cycles N | --wall-deadline SECONDS | --sanitize\n"
           "  --snapshot PATH | --snapshot-every N | --restore PATH\n";
    return 2;
}

/** Largest --trace-capacity: 2^24 events of 24 B each. */
constexpr std::size_t kMaxTraceCapacity = std::size_t{1} << 24;

/**
 * @p text as a decimal uint64: digits only, since std::stoull alone
 * would accept a sign or leading blanks and wrap "-1" to 2^64 - 1.
 */
std::optional<std::uint64_t>
parseUnsigned(const std::string &text)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return std::nullopt;
    try {
        return std::stoull(text);
    } catch (const std::out_of_range &) {
        return std::nullopt;
    }
}

/** Split "a:b:c" into exactly @p n numbers; exits with usage on error. */
std::vector<std::uint64_t>
splitNumbers(const std::string &arg, const std::string &text, std::size_t n)
{
    std::vector<std::uint64_t> parts;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ':')) {
        const std::optional<std::uint64_t> v = parseUnsigned(item);
        if (!v) {
            parts.clear();
            break;
        }
        parts.push_back(*v);
    }
    if (parts.size() != n) {
        std::cerr << arg << " needs " << n
                  << " colon-separated numbers, got '" << text << "'\n";
        exit(usage());
    }
    return parts;
}

/** @p v narrowed to @p T; a value past T's range exits with usage. */
template <typename T>
T
narrow(const std::string &arg, std::uint64_t v)
{
    constexpr auto max = std::numeric_limits<T>::max();
    if (v > static_cast<std::uint64_t>(max)) {
        std::cerr << arg << " is out of range (at most " << max << ")\n";
        exit(usage());
    }
    return static_cast<T>(v);
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream file(path);
    rm::fatalIf(!file, "rm-inspect: cannot open ", path, " for writing");
    file << content;
    if (!content.empty() && content.back() != '\n')
        file << "\n";
    rm::fatalIf(!file.good(), "rm-inspect: failed writing ", path);
}

/** Re-indent a JSON document for humans (strings have no braces we
 *  would trip over thanks to JsonWriter's escaping). */
std::string
prettyPrint(const std::string &json)
{
    std::string out;
    int depth = 0;
    bool in_string = false;
    auto newline = [&]() {
        out += '\n';
        out.append(static_cast<std::size_t>(depth) * 2, ' ');
    };
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (in_string) {
            out += c;
            if (c == '\\' && i + 1 < json.size())
                out += json[++i];
            else if (c == '"')
                in_string = false;
            continue;
        }
        switch (c) {
          case '"':
            in_string = true;
            out += c;
            break;
          case '{':
          case '[':
            out += c;
            ++depth;
            newline();
            break;
          case '}':
          case ']':
            --depth;
            newline();
            out += c;
            break;
          case ',':
            out += c;
            newline();
            break;
          case ':':
            out += ": ";
            break;
          default:
            out += c;
        }
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rm;

    std::string allocator_name = "regmutex";
    std::string target;
    std::string json_path, csv_path, chrome_path;
    std::uint64_t sample_interval = 1000;
    std::size_t trace_capacity = 1u << 20;
    int sms = 1;
    int threads = 0;
    bool pretty = false;
    bool lint = false;
    std::uint64_t max_cycles = 0;
    double wall_deadline_seconds = 0.0;
    bool sanitize = false;
    std::uint64_t snapshot_every = 0;
    std::string snapshot_path, restore_path;
    GpuConfig config = gtx480Config();
    CompileOptions compile_options;
    FaultPlan fault;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                exit(usage());
            }
            return argv[++i];
        };
        auto nextNumber = [&]() -> std::uint64_t {
            const std::string text = next();
            if (const std::optional<std::uint64_t> v = parseUnsigned(text))
                return *v;
            std::cerr << arg << " needs a number, got '" << text
                      << "'\n";
            exit(usage());
        };
        if (arg == "--kernel") {
            target = next();
        } else if (arg == "--allocator" || arg == "--policy") {
            allocator_name = next();
        } else if (arg == "--json") {
            json_path = next();
        } else if (arg == "--csv") {
            csv_path = next();
        } else if (arg == "--chrome-trace") {
            chrome_path = next();
        } else if (arg == "--sample-interval") {
            sample_interval = nextNumber();
        } else if (arg == "--trace-capacity") {
            trace_capacity = nextNumber();
            if (trace_capacity < 1 || trace_capacity > kMaxTraceCapacity) {
                std::cerr << "--trace-capacity must be in [1, "
                          << kMaxTraceCapacity << "]\n";
                return usage();
            }
        } else if (arg == "--sms") {
            sms = narrow<int>(arg, nextNumber());
            if (sms < 1) {
                std::cerr << "--sms needs at least 1 SM\n";
                return usage();
            }
        } else if (arg == "--threads") {
            threads = narrow<int>(arg, nextNumber());
        } else if (arg == "--pretty") {
            pretty = true;
        } else if (arg == "--lint") {
            lint = true;
        } else if (arg == "--half-rf") {
            config = halfRegisterFile(config);
        } else if (arg == "--es") {
            compile_options.forcedEs = narrow<int>(arg, nextNumber());
        } else if (arg == "--lrr") {
            config.schedPolicy = SchedPolicy::Lrr;
        } else if (arg == "--poll") {
            config.wakeOnRelease = false;
        } else if (arg == "--fault-deny-acquire") {
            const auto v = splitNumbers(arg, next(), 2);
            fault.denyAcquire = {v[0], v[1]};
        } else if (arg == "--fault-delay-release") {
            const auto v = splitNumbers(arg, next(), 3);
            fault.delayRelease = {v[0], v[1]};
            fault.releaseDelayCycles = v[2];
        } else if (arg == "--fault-shrink-srp") {
            const auto v = splitNumbers(arg, next(), 2);
            fault.shrinkSrpAtCycle = v[0];
            fault.shrinkSrpSections = narrow<int>(arg, v[1]);
        } else if (arg == "--fault-mem-spike") {
            const auto v = splitNumbers(arg, next(), 3);
            fault.memSpike = {v[0], v[1]};
            fault.memSpikeFactor = narrow<int>(arg, v[2]);
        } else if (arg == "--fault-corrupt") {
            fault.corruptStateAtCycle = nextNumber();
        } else if (arg == "--max-cycles") {
            max_cycles = nextNumber();
        } else if (arg == "--wall-deadline") {
            const std::string text = next();
            try {
                std::size_t used = 0;
                wall_deadline_seconds = std::stod(text, &used);
                if (used != text.size() || wall_deadline_seconds <= 0.0)
                    throw std::invalid_argument(text);
            } catch (const std::exception &) {
                std::cerr << "--wall-deadline needs a positive number "
                             "of seconds, got '"
                          << text << "'\n";
                return usage();
            }
        } else if (arg == "--sanitize") {
            sanitize = true;
        } else if (arg == "--snapshot") {
            snapshot_path = next();
        } else if (arg == "--snapshot-every") {
            snapshot_every = nextNumber();
        } else if (arg == "--restore") {
            restore_path = next();
        } else if (arg == "--fault-seed") {
            fault.seed = nextNumber();
        } else if (arg == "--watchdog") {
            config.watchdogCycles = narrow<long long>(arg, nextNumber());
        } else if (arg == "--list") {
            for (const auto &entry : paperSuite())
                std::cout << entry.spec.name << "\n";
            return 0;
        } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
            std::cerr << "unknown option " << arg << "\n";
            return usage();
        } else {
            target = arg;
        }
    }
    if (target.empty())
        return usage();

    try {
        const Program program = loadKernel(target);

        // The observability stack: registry + sampler, plus the trace
        // ring (trace_capacity events, allocated up front) only when
        // --chrome-trace will render it.
        MetricsRegistry registry;
        Sampler sampler(registry, sample_interval);
        std::optional<IssueTrace> trace;
        ObsSinks obs;
        obs.metrics = &registry;
        obs.sampler = &sampler;
        if (!chrome_path.empty())
            obs.trace = &trace.emplace(trace_capacity);

        const PolicySpec *policy =
            PolicyRegistry::instance().find(allocator_name);
        if (!policy) {
            std::cerr << "unknown allocator " << allocator_name << "\n";
            return usage();
        }

        // Static gate: lint the policy's compiled program before
        // spending any simulation time on it. runPolicy() recompiles,
        // but compilation is pure and cheap next to a simulation.
        if (lint) {
            const PolicyCompile pc =
                policy->compile(program, config, compile_options);
            LintOptions lint_options;
            lint_options.config = &config;
            lint_options.disabledChecks = policy->lintSuppressions;
            const LintReport report =
                runLints(pc.program, lint_options);
            inform("rm-inspect: lint: ", report.errorCount(),
                   " error(s), ", report.warningCount(),
                   " warning(s), ", report.noteCount(), " note(s)");
            for (const Diagnostic &d : report.diagnostics) {
                const std::string line =
                    renderDiagnostic(pc.program, d);
                if (d.severity == LintSeverity::Error)
                    warn("rm-inspect: lint: ", line);
                else
                    inform("rm-inspect: lint: ", line);
            }
            if (!report.clean()) {
                std::cerr << "lint failed: "
                          << report.errorCount()
                          << " error finding(s); rerun rm-lint for "
                             "the full report\n";
                return 4;
            }
        }

        RunOptions run_options;
        run_options.compile = compile_options;
        run_options.gpu.obs = obs;
        if (sms > 1) {
            config.numSms = sms;
            run_options.gpu.mode = GpuOptions::Mode::FullMachine;
        }
        run_options.gpu.threads = threads;
        run_options.gpu.fault = fault;
        run_options.gpu.control.maxCycles = max_cycles;
        run_options.gpu.control.sanitize = sanitize;
        if (wall_deadline_seconds > 0.0)
            run_options.gpu.control =
                run_options.gpu.control.withWallDeadlineSeconds(
                    wall_deadline_seconds);
        run_options.gpu.snapshotEvery = snapshot_every;
        if (!snapshot_path.empty())
            run_options.gpu.snapshotSink =
                [&snapshot_path](const GpuSnapshot &snap) {
                    writeSnapshotFile(snapshot_path, snap);
                };
        if (!restore_path.empty())
            run_options.gpu.resume = std::make_shared<GpuSnapshot>(
                readSnapshotFile(restore_path));

        const PolicyRun run =
            runPolicy(*policy, program, config, run_options);
        const SimStats &stats = run.stats();
        // The policy's executed program (OWF already has its directives
        // stripped) so trace PCs disassemble correctly.
        const Program &executed = run.compile.program;
        // The sinks instrument SM 0; close the series at that SM's end.
        const std::uint64_t obs_cycles = run.result.perSm.front().cycles;

        // Final partial-interval sample so the series reaches the end.
        if (sampler.samples().empty() ||
            sampler.samples().back().cycle != obs_cycles) {
            sampler.snapshot(obs_cycles);
        }

        // --- Assemble the JSON document ---
        JsonWriter w;
        w.beginObject();
        w.key("stats");
        statsToJson(w, stats);
        w.key("metrics");
        registryToJson(w, registry);
        w.key("sampling").beginObject();
        w.key("interval_cycles").value(sampler.interval());
        w.key("samples")
            .value(static_cast<std::uint64_t>(sampler.samples().size()));
        w.key("columns").beginArray();
        for (const std::string &column : sampler.columns())
            w.value(column);
        w.endArray();
        w.endObject();
        w.endObject();
        const std::string document = w.take();

        if (!json_path.empty())
            writeFile(json_path, document);
        if (!csv_path.empty())
            writeFile(csv_path, samplerToCsv(sampler));
        if (trace)
            writeFile(chrome_path, chromeTrace(*trace, executed));

        if (pretty) {
            std::cout << prettyPrint(document) << "\n";
        } else {
            Table table({"metric", "value"});
            auto add = [&](const char *name, const std::string &value) {
                table.addRow({name, value});
            };
            add("kernel", stats.kernelName);
            add("allocator", stats.allocatorName);
            const std::optional<CompileResult> &compiled =
                run.compile.compile;
            if (compiled && compiled->enabled()) {
                const EsSelection &split = compiled->selection;
                add("compiled split",
                    "|Bs| " + std::to_string(split.bs) + ", |Es| " +
                        std::to_string(split.es) + ", " +
                        std::to_string(split.srpSections) +
                        " SRP sections");
            }
            add("cycles", std::to_string(stats.cycles));
            add("cycles stepped",
                std::to_string(run.result.steppedCycles));
            add("instructions", std::to_string(stats.instructions));
            add("IPC", fixed(stats.ipc(), 3));
            add("theoretical occupancy",
                percent(stats.theoreticalOccupancy));
            add("avg resident warps",
                fixed(stats.avgResidentWarps, 1));
            add("acquire success", percent(stats.acquireSuccessRate()));
            const Histogram &wait =
                registry.histogram("srp.acquire_wait_cycles");
            add("acquire waits observed",
                std::to_string(wait.count()));
            add("acquire wait mean (cyc)", fixed(wait.mean(), 1));
            add("acquire wait max (cyc)",
                std::to_string(wait.max()));
            add("samples taken",
                std::to_string(sampler.samples().size()));
            add("RF energy (normalized)",
                fixed(estimateEnergy(config, stats).total(), 1));
            add("deadlocked", stats.deadlocked ? "YES" : "no");
            add("deadlock cause",
                deadlockCauseName(stats.deadlockCause));
            if (!run.result.completed())
                add("preempted",
                    preemptReasonName(run.result.preemptReason));
            if (fault.active())
                add("fault events", std::to_string(stats.faultEvents));
            if (run.result.numSms() > 1) {
                std::uint64_t lo = run.result.perSm.front().cycles;
                std::uint64_t hi = lo;
                for (const SimStats &sm : run.result.perSm) {
                    lo = std::min(lo, sm.cycles);
                    hi = std::max(hi, sm.cycles);
                }
                add("SMs", std::to_string(run.result.numSms()));
                add("per-SM cycles (min-max)",
                    std::to_string(lo) + "-" + std::to_string(hi));
            }
            std::cout << table.toText();
        }

        auto report = [&](const char *what, const std::string &path) {
            if (!path.empty())
                std::cout << "wrote " << what << ": " << path << "\n";
        };
        report("stats+metrics JSON", json_path);
        report("time-series CSV", csv_path);
        report("Chrome trace (open in chrome://tracing or "
               "ui.perfetto.dev)",
               chrome_path);
        if (stats.deadlocked && stats.hang)
            std::cerr << "\n" << stats.hang->summary() << "\n";
        if (!run.result.completed()) {
            std::cerr << "preempted ("
                      << preemptReasonName(run.result.preemptReason)
                      << ") after " << stats.cycles
                      << " cycles on the slowest SM";
            if (!snapshot_path.empty())
                std::cerr << "; resume with --restore " << snapshot_path;
            std::cerr << "\n";
            return 3;
        }
        return stats.deadlocked ? 1 : 0;
    } catch (const SimulationError &e) {
        // Watchdog expiry: the simulation never returned stats, but
        // the exception carries the full forensics snapshot.
        std::cerr << "error: " << e.what() << "\n";
        if (e.diagnosis()) {
            if (!json_path.empty()) {
                JsonWriter w;
                w.beginObject();
                w.key("hang");
                diagnosisToJson(w, *e.diagnosis());
                w.endObject();
                writeFile(json_path, w.take());
                std::cerr << "wrote hang forensics JSON: " << json_path
                          << "\n";
            }
        }
        return 1;
    } catch (const FatalError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}

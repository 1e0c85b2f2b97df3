/**
 * @file
 * Command-line simulator driver: run any suite workload — or a kernel
 * written in the textual assembly — under any allocation policy and
 * architecture variant, and print the statistics. The scriptable
 * entry point for users who want the simulator without writing C++.
 *
 * Usage:
 *   regmutex_sim [options] <workload-or-file.asm>
 *     --policy baseline|regmutex|paired|owf|rfv   (default regmutex)
 *     --half-rf            halve the register file
 *     --rf-kb N            register file size in KB
 *     --es N               force the extended-set size
 *     --lrr                loose round-robin scheduling
 *     --poll               poll-retry acquires instead of wake-on-release
 *     --no-compaction      disable register index compaction
 *     --asm                dump the (compiled) program listing
 *     --liveness           dump the nvdisasm-style liveness matrix
 *     --energy             print the register-file energy estimate
 *     --list               list the bundled workloads
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/liveness.hh"
#include "analysis/liveness_report.hh"
#include "common/errors.hh"
#include "common/table.hh"
#include "core/experiment.hh"
#include "isa/asm_parser.hh"
#include "isa/disasm.hh"
#include "regmutex/energy.hh"
#include "sim/trace.hh"
#include "workloads/suite.hh"

namespace {

int
usage()
{
    std::cerr
        << "usage: regmutex_sim [options] <workload-or-file.asm>\n"
           "  --policy baseline|regmutex|paired|owf|rfv\n"
           "  --half-rf | --rf-kb N | --es N | --lrr | --poll\n"
           "  --no-compaction | --trace N | --asm | --liveness\n"
           "  --energy | --list\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rm;

    std::string policy = "regmutex";
    std::string target;
    GpuConfig config = gtx480Config();
    CompileOptions compile_options;
    bool dump_asm = false;
    bool dump_liveness = false;
    bool print_energy = false;
    int trace_events = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                exit(usage());
            }
            return argv[++i];
        };
        if (arg == "--policy") {
            policy = next();
        } else if (arg == "--half-rf") {
            config = halfRegisterFile(config);
        } else if (arg == "--rf-kb") {
            config.registersPerSm = std::stoi(next()) * 1024 / 4;
        } else if (arg == "--es") {
            compile_options.forcedEs = std::stoi(next());
        } else if (arg == "--lrr") {
            config.schedPolicy = SchedPolicy::Lrr;
        } else if (arg == "--poll") {
            config.wakeOnRelease = false;
        } else if (arg == "--no-compaction") {
            compile_options.enableCompaction = false;
        } else if (arg == "--trace") {
            trace_events = std::stoi(next());
        } else if (arg == "--asm") {
            dump_asm = true;
        } else if (arg == "--liveness") {
            dump_liveness = true;
        } else if (arg == "--energy") {
            print_energy = true;
        } else if (arg == "--list") {
            for (const auto &entry : paperSuite())
                std::cout << entry.spec.name << "\n";
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "unknown option " << arg << "\n";
            return usage();
        } else {
            target = arg;
        }
    }
    if (target.empty())
        return usage();

    try {
        // Load the kernel: a bundled workload name or an .asm file.
        Program program;
        if (target.size() > 4 &&
            target.substr(target.size() - 4) == ".asm") {
            std::ifstream file(target);
            if (!file) {
                std::cerr << "cannot open " << target << "\n";
                return 1;
            }
            std::ostringstream text;
            text << file.rdbuf();
            program = parseProgram(text.str());
        } else {
            program = buildWorkload(target);
        }

        if (PolicyRegistry::instance().find(policy) == nullptr) {
            std::cerr << "unknown policy " << policy << "\n";
            return usage();
        }
        IssueTrace trace(
            trace_events > 0 ? static_cast<std::size_t>(trace_events)
                             : 1);
        IssueTrace *trace_ptr = trace_events > 0 ? &trace : nullptr;
        RunOptions run_options;
        run_options.compile = compile_options;
        run_options.gpu.obs.trace = trace_ptr;
        const PolicyRun run =
            runPolicy(policy, program, config, run_options);
        const SimStats &stats = run.stats();
        const Program &executed = run.compile.program;
        if (policy == "regmutex") {
            const CompileResult &compiled = *run.compile.compile;
            if (compiled.enabled()) {
                std::cout << "compiled: |Bs| = " << compiled.selection.bs
                          << ", |Es| = " << compiled.selection.es
                          << ", SRP sections = "
                          << compiled.selection.srpSections
                          << ", acquires = " << compiled.injected.acquires
                          << ", releases = " << compiled.injected.releases
                          << "\n";
            } else {
                std::cout << "compiled: RegMutex not applied (not "
                             "register-limited)\n";
            }
        }

        if (trace_ptr) {
            std::cout << "--- issue trace (last "
                      << trace.size() << " of "
                      << trace.totalRecorded() << " events) ---\n";
            trace.dump(std::cout, executed);
        }
        if (dump_asm)
            std::cout << disassemble(executed);
        if (dump_liveness) {
            const Cfg cfg = Cfg::build(executed);
            const Liveness live = Liveness::compute(executed, cfg);
            std::cout << renderLiveness(
                executed, live, executed.regmutex.baseRegs);
        }

        Table table({"metric", "value"});
        auto add = [&](const char *name, const std::string &value) {
            table.addRow({name, value});
        };
        add("kernel", stats.kernelName);
        add("policy", stats.allocatorName);
        add("cycles", std::to_string(stats.cycles));
        add("instructions", std::to_string(stats.instructions));
        add("IPC", fixed(stats.ipc(), 3));
        add("CTAs completed", std::to_string(stats.ctasCompleted));
        add("theoretical occupancy",
            percent(stats.theoreticalOccupancy));
        add("avg resident warps", fixed(stats.avgResidentWarps, 1));
        add("acquire attempts", std::to_string(stats.acquireAttempts));
        add("acquire success", percent(stats.acquireSuccessRate()));
        add("releases", std::to_string(stats.releases));
        add("scoreboard stalls", std::to_string(stats.scoreboardStalls));
        add("emergency spills", std::to_string(stats.emergencySpills));
        add("deadlocked", stats.deadlocked ? "YES" : "no");
        std::cout << "\n" << table.toText();

        if (print_energy) {
            const EnergyReport energy = estimateEnergy(config, stats);
            std::cout << "\nregister-file energy (normalized): total "
                      << fixed(energy.total(), 1) << "  (dynamic "
                      << fixed(energy.dynamicEnergy, 1) << ", leakage "
                      << fixed(energy.leakageEnergy, 1)
                      << ", directives "
                      << fixed(energy.directiveEnergy, 1) << ")\n";
        }
        return stats.deadlocked ? 1 : 0;
    } catch (const FatalError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}

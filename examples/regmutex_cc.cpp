/**
 * @file
 * Standalone RegMutex compiler driver: reads a kernel in the textual
 * assembly, runs the full pipeline (liveness, |Es| selection,
 * compaction, directive injection, validation) for a chosen
 * architecture, and writes the transformed kernel back as assembly —
 * the `.baseRegs`/`.extRegs` directives carry the split for the
 * hardware. Compilation statistics go to stderr so the output stays
 * pipeable.
 *
 * Usage:
 *   regmutex_cc [--half-rf] [--es N] [--coalesce N] [--report]
 *               <kernel.asm|name|->   (a bundled workload name, or
 *                                      "-" for assembly on stdin)
 *
 * --report adds, on stderr, the |Es| candidate table the heuristic
 * weighed, the residual low-pressure held-instruction count, and the
 * nvdisasm-style liveness matrix of the compiled program.
 *
 * Exit status: 0 on success, 1 when the kernel cannot be loaded or
 * compiled, 2 on usage errors (unknown flag, missing or malformed
 * value).
 *
 * Example:
 *   ./examples/regmutex_cc BFS | ./examples/regmutex_cc -   # idempotence check fails: already compiled
 */

#include <cstdint>
#include <iostream>
#include <limits>
#include <string>

#include "analysis/cfg.hh"
#include "analysis/liveness.hh"
#include "analysis/liveness_report.hh"
#include "common/errors.hh"
#include "common/table.hh"
#include "compiler/pipeline.hh"
#include "isa/asm_parser.hh"
#include "workloads/suite.hh"

namespace {

int
usage()
{
    std::cerr << "usage: regmutex_cc [--half-rf] [--es N] [--coalesce N] "
                 "[--report] <kernel.asm|name|->\n";
    return 2;
}

/** The |Es| candidates the heuristic weighed, one row each. */
std::string
candidateTable(const rm::CompileResult &compiled)
{
    rm::Table table({"|Es|", "|Bs|", "CTAs", "warps", "SRP sections",
                     "barrier rule", "half rule"});
    for (const auto &cand : compiled.selection.candidates) {
        rm::Row row;
        row << cand.es << cand.bs << cand.ctasPerSm << cand.warpsPerSm
            << cand.srpSections << (cand.meetsBarrierRule ? "ok" : "X")
            << (cand.passesHalfRule ? "pass" : "fail");
        table.addRow(row.take());
    }
    return table.toText();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rm;

    GpuConfig config = gtx480Config();
    CompileOptions options;
    bool report = false;
    std::string target;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                exit(usage());
            }
            return argv[++i];
        };
        auto nextNumber = [&]() -> int {
            const std::string text = next();
            try {
                std::size_t used = 0;
                const std::uint64_t v = std::stoull(text, &used);
                if (used == text.size() &&
                    v <= static_cast<std::uint64_t>(
                             std::numeric_limits<int>::max()))
                    return static_cast<int>(v);
            } catch (const std::exception &) {
            }
            std::cerr << arg << " needs a number, got '" << text
                      << "'\n";
            exit(usage());
        };
        if (arg == "--half-rf") {
            config = halfRegisterFile(config);
        } else if (arg == "--es") {
            options.forcedEs = nextNumber();
        } else if (arg == "--coalesce") {
            options.coalesceGap = nextNumber();
        } else if (arg == "--report") {
            report = true;
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
        const CompileResult compiled =
            compileRegMutex(program, config, options);

        if (compiled.enabled()) {
            std::cerr << "regmutex_cc: " << program.info.name << ": |Bs| = "
                      << compiled.selection.bs << ", |Es| = "
                      << compiled.selection.es << ", SRP sections = "
                      << compiled.selection.srpSections << ", "
                      << compiled.injected.acquires << " acquires, "
                      << compiled.injected.releases << " releases, "
                      << compiled.movCuts << " compaction MOVs\n";
        } else {
            std::cerr << "regmutex_cc: " << program.info.name
                      << ": not register-limited; kernel unchanged\n";
        }

        std::cout << emitProgram(compiled.program);
        if (report) {
            if (compiled.enabled())
                std::cerr << "Extended-set size candidates:\n"
                          << candidateTable(compiled)
                          << "Residual low-pressure held instructions: "
                          << compiled.wastedHeldInsts << "\n\n";
            const Cfg cfg = Cfg::build(compiled.program);
            const Liveness live =
                Liveness::compute(compiled.program, cfg);
            std::cerr << renderLiveness(compiled.program, live,
                                        compiled.program.regmutex
                                            .baseRegs);
        }
        return 0;
    } catch (const FatalError &e) {
        std::cerr << "regmutex_cc: error: " << e.what() << "\n";
        return 1;
    }
}

/**
 * @file
 * `rm-lint` — whole-program static analysis CLI over RegMutex kernels
 * and compiler output (the engine lives in src/analysis/lint.hh; the
 * check catalog is in docs/ANALYSIS.md):
 *
 *   rm-lint BFS                         lint one suite workload
 *   rm-lint kernel.asm                  lint an assembly file ("-"
 *                                       reads assembly from stdin)
 *   rm-lint --all --compile             lint every suite workload after
 *                                       the RegMutex compiler
 *   rm-lint --translate SPMV            translation validation: lint
 *                                       after every compiler pass and
 *                                       name the pass that regressed
 *   rm-lint --mutants BFS               replay the seeded-mutation
 *                                       corpus; every mutant must be
 *                                       flagged with its expected check
 *
 *   --all              lint all 16 suite workloads (Table I)
 *   --compile          lint the RegMutex compiler's output instead of
 *                      the input kernel
 *   --translate        implies --compile; record a lint report after
 *                      every pass and report regressing passes
 *   --mutants          corpus self-test (exit 1 when a mutant escapes)
 *   --half-rf          halved register file for the RM006 cross-checks
 *   --disable RMxxx    suppress one check (repeatable)
 *   --json PATH        structured JSON report ("-" = stdout)
 *   --sarif PATH       SARIF 2.1.0 report ("-" = stdout; single target)
 *   --quiet            suppress the per-finding text lines
 *   --list-checks      print the check catalog and exit
 *   --list             print the suite workload names and exit
 *
 * Exit status: 0 when every linted program is clean (no error-severity
 * findings) and, under --mutants, every mutant was caught; 1 otherwise,
 * including a target that cannot be loaded; 2 on usage errors.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/lint.hh"
#include "analysis/mutator.hh"
#include "common/errors.hh"
#include "compiler/pipeline.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "workloads/suite.hh"

namespace {

int
usage()
{
    std::cerr
        << "usage: rm-lint [options] <workload|file.asm|->...\n"
           "  --all | --compile | --translate | --mutants\n"
           "  --half-rf | --disable RMxxx\n"
           "  --json PATH|- | --sarif PATH|- | --quiet\n"
           "  --list-checks | --list\n";
    return 2;
}

void
writeOut(const std::string &path, const std::string &content)
{
    if (path == "-") {
        std::cout << content << "\n";
        return;
    }
    std::ofstream file(path);
    rm::fatalIf(!file, "rm-lint: cannot open ", path, " for writing");
    file << content << "\n";
    rm::fatalIf(!file.good(), "rm-lint: failed writing ", path);
}

/** Findings of @p check in @p report. */
int
countOf(const rm::LintReport &report, const std::string &check)
{
    int n = 0;
    for (const rm::Diagnostic &d : report.diagnostics)
        n += d.checkId == check;
    return n;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rm;

    std::vector<std::string> targets;
    std::string json_path, sarif_path;
    LintOptions lint_options;
    GpuConfig config = gtx480Config();
    bool all = false;
    bool compile = false;
    bool translate = false;
    bool mutants = false;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                exit(usage());
            }
            return argv[++i];
        };
        if (arg == "--all") {
            all = true;
        } else if (arg == "--compile") {
            compile = true;
        } else if (arg == "--translate") {
            translate = compile = true;
        } else if (arg == "--mutants") {
            mutants = true;
        } else if (arg == "--half-rf") {
            config = halfRegisterFile(config);
        } else if (arg == "--disable") {
            lint_options.disabledChecks.push_back(next());
        } else if (arg == "--json") {
            json_path = next();
        } else if (arg == "--sarif") {
            sarif_path = next();
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--list-checks") {
            for (const auto &check : lintChecks())
                std::cout << check->id() << "  " << check->name() << "\n"
                          << "       " << check->description() << "\n";
            return 0;
        } else if (arg == "--list") {
            for (const auto &entry : paperSuite())
                std::cout << entry.spec.name << "\n";
            return 0;
        } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
            std::cerr << "unknown option " << arg << "\n";
            return usage();
        } else {
            targets.push_back(arg);
        }
    }
    if (all)
        for (const auto &entry : paperSuite())
            targets.push_back(entry.spec.name);
    if (targets.empty())
        return usage();
    if (!sarif_path.empty() && targets.size() != 1) {
        std::cerr << "--sarif emits one document; give one target\n";
        return usage();
    }

    lint_options.config = &config;

    try {
        bool failed = false;
        JsonWriter json;
        json.beginArray();

        for (const std::string &target : targets) {
            Program program = loadKernel(target);

            CompileResult compiled;
            if (compile) {
                CompileOptions options;
                options.translationValidate = translate;
                compiled = compileRegMutex(program, config, options);
                program = compiled.program;
            }

            const LintReport report = runLints(program, lint_options);
            failed |= !report.clean();

            if (!quiet) {
                std::cout << program.info.name << ": "
                          << report.errorCount() << " error(s), "
                          << report.warningCount() << " warning(s), "
                          << report.noteCount() << " note(s)\n";
                const std::string lines = renderReport(program, report);
                if (!lines.empty())
                    std::cout << lines;
            }

            if (translate) {
                const std::vector<std::string> regressed =
                    lintRegressions(compiled.passLints);
                for (const PassLint &pass : compiled.passLints) {
                    if (!quiet)
                        std::cout << "  pass " << pass.pass << ": "
                                  << pass.report.errorCount()
                                  << " error(s), "
                                  << pass.report.warningCount()
                                  << " warning(s)\n";
                }
                for (const std::string &pass : regressed) {
                    failed = true;
                    std::cout << "  FAIL: pass '" << pass
                              << "' introduced a lint violation\n";
                }
            }

            if (mutants) {
                const std::vector<Mutant> corpus =
                    mutationCorpus(program);
                int caught = 0;
                for (const Mutant &m : corpus) {
                    const LintReport mutated =
                        runLints(m.program, lint_options);
                    const bool hit =
                        countOf(mutated, m.expectCheck) >
                        countOf(report, m.expectCheck);
                    caught += hit;
                    if (hit && quiet)
                        continue;
                    std::cout << "  mutant " << m.name << " ["
                              << m.expectCheck << "] "
                              << (hit ? "caught" : "ESCAPED") << ": "
                              << m.description << "\n";
                    failed |= !hit;
                }
                std::cout << "  mutants: " << caught << "/"
                          << corpus.size() << " caught ("
                          << mutationClassNames().size()
                          << " classes defined)\n";
            }

            if (!json_path.empty())
                lintReportToJson(json, program, report);
            if (!sarif_path.empty())
                writeOut(sarif_path, lintReportToSarif(program, report));
        }

        json.endArray();
        if (!json_path.empty())
            writeOut(json_path, json.take());

        return failed ? 1 : 0;
    } catch (const FatalError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}

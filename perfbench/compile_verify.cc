/**
 * @file
 * Workload `compile-verify`: compiler verdicts. The 16 Table I kernel
 * specs are rebuilt with a seed-chosen register scramble and a
 * one-CTA grid, then each is compiled under regmutex and paired with
 * translation validation on, for GTX480 (the occupancy-limited eight)
 * or the half register file (the other eight). A verdict passes when
 * no pass introduced a lint error, runLints and validateRegMutex
 * accept the output, and the interpreter leaves identical memory and
 * store digests for the original and compiled programs. The cycle
 * loop never runs here.
 *
 * Timed passes spread their 32 independent verdicts over nproc threads
 * so that the per-vCPU speed drift of a shared host averages out, as
 * it does for figures; a lone verdict thread took all of it. The
 * traced run calls them one at a time on one thread, so that each
 * layer's self time is its own.
 */

#include <stdexcept>
#include <tuple>

#include "analysis/lint.hh"
#include "common/thread_pool.hh"
#include "compiler/validator.hh"
#include "sim/interpreter.hh"
#include "workloads.hh"
#include "workloads/suite.hh"

namespace perfbench {

namespace {

const char *const kPolicies[] = {"regmutex", "paired"};

/**
 * Warm-up passes before timing. On a shared 4-vCPU host the first
 * passes after start-up can run verdicts at 4x their settled latency
 * (47 ms against 10 ms), which one pass did not always absorb.
 */
constexpr int kWarmUpPasses = 4;

struct VerdictOutcome
{
    bool ok = true;
    std::string why;
    double seconds = 0.0;
    std::uint64_t interpreted = 0;
    std::int64_t addedInsts = 0;
    std::int64_t findings = 0;
    bool rmxEnabled = false;
};

void
judge(const VerifyKernel &k, const rm::PolicySpec &policy, Tracer *tracer,
      int op, VerdictOutcome &out)
{
    Scope verdict_span(tracer, "op/verdict", -1, op);
    const int parent = verdict_span.spanId();
    auto fail = [&](std::string why) {
        if (out.ok) {
            out.ok = false;
            out.why = std::move(why);
        }
    };

    rm::CompileOptions options;
    options.translationValidate = true;
    rm::PolicyCompile compiled;
    {
        Scope span(tracer, "compiler/PolicySpec::compile", parent, op);
        compiled = policy.compile(k.program, k.config, options);
    }
    if (!compiled.compile) {
        fail("policy did not run the RegMutex compiler");
    } else {
        out.rmxEnabled = compiled.compile->enabled();
        const std::vector<std::string> bad =
            rm::lintRegressions(compiled.compile->passLints);
        if (!bad.empty())
            fail("translation validation: pass '" + bad.front() +
                 "' introduced a lint error");
    }
    out.addedInsts = static_cast<std::int64_t>(compiled.program.size()) -
                     static_cast<std::int64_t>(k.program.size());

    {
        rm::LintOptions lint_options;
        lint_options.config = &k.config;
        lint_options.disabledChecks = policy.lintSuppressions;
        Scope span(tracer, "analysis/runLints", parent, op);
        const rm::LintReport lint = rm::runLints(compiled.program, lint_options);
        out.findings = static_cast<std::int64_t>(lint.diagnostics.size());
        if (!lint.clean())
            fail("runLints reports errors");
    }
    {
        Scope span(tracer, "compiler/validateRegMutex", parent, op);
        const rm::ValidationReport report =
            rm::validateRegMutex(compiled.program);
        if (!report.ok)
            fail("validateRegMutex: " + report.error);
    }

    rm::InterpResult original, transformed;
    {
        Scope span(tracer, "sim/interpret", parent, op);
        original = rm::interpret(k.program);
    }
    {
        Scope span(tracer, "sim/interpret", parent, op);
        transformed = rm::interpret(compiled.program);
    }
    if (original.hitStepLimit || transformed.hitStepLimit)
        fail("interpreter hit its step limit");
    if (original.memDigest != transformed.memDigest ||
        original.storeDigest != transformed.storeDigest)
        fail("compiled program computes different memory contents");
    out.interpreted =
        original.totalInstructions + transformed.totalInstructions;
}

VerdictOutcome
verdict(const VerifyKernel &k, const rm::PolicySpec &policy, Tracer *tracer,
        int op)
{
    VerdictOutcome out;
    const std::int64_t start = nowNs();
    try {
        judge(k, policy, tracer, op, out);
    } catch (const std::exception &e) {
        out.ok = false;
        out.why = std::string("threw: ") + e.what();
    }
    out.seconds = secondsSince(start);
    return out;
}

} // namespace

std::vector<VerifyKernel>
verifyKernels(std::uint64_t seed, Tracer *tracer)
{
    const rm::GpuConfig full = rm::gtx480Config();
    const rm::GpuConfig half = rm::halfRegisterFile(full);
    std::vector<VerifyKernel> kernels;
    std::uint64_t index = 0;
    for (const rm::WorkloadEntry &entry : rm::paperSuite()) {
        rm::KernelSpec spec = entry.spec;
        spec.scramble = true;
        spec.seed = deriveSeed(seed, kScrambleRole, index++);
        spec.gridCtasPerSm = 1;
        Scope span(tracer, "workloads/buildKernel");
        kernels.push_back({spec.name, rm::buildKernel(spec, 1),
                           entry.occupancyLimited ? full : half});
    }
    return kernels;
}

VerdictPass
runVerdictPass(const std::vector<VerifyKernel> &kernels,
               const std::vector<const rm::PolicySpec *> &policies,
               int threads, Tracer *tracer, int first_op, RunReport &report)
{
    const std::size_t per_kernel = policies.size();
    std::vector<VerdictOutcome> outcomes(kernels.size() * per_kernel);
    const std::int64_t start = nowNs();
    rm::parallelFor(
        static_cast<int>(outcomes.size()),
        [&](int i) {
            const auto at = static_cast<std::size_t>(i);
            outcomes[at] = verdict(kernels[at / per_kernel],
                                   *policies[at % per_kernel], tracer,
                                   first_op + i);
        },
        threads);
    VerdictPass pass;
    pass.seconds = secondsSince(start);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const VerdictOutcome &o = outcomes[i];
        report.check(o.ok, kernels[i / per_kernel].name + "|" +
                               policies[i % per_kernel]->name + ": " + o.why);
        pass.latencies.push_back(o.seconds);
        pass.interpreted += o.interpreted;
        pass.addedInsts += o.addedInsts;
        pass.findings += o.findings;
        pass.rmxEnabled += o.rmxEnabled ? 1 : 0;
        ++pass.verdicts;
    }
    return pass;
}

RunReport
runCompileVerify(const RunContext &ctx)
{
    RunReport report;
    Tracer tracer;
    const std::vector<VerifyKernel> kernels =
        verifyKernels(ctx.seed, ctx.trace ? &tracer : nullptr);
    std::vector<const rm::PolicySpec *> policies;
    for (const char *name : kPolicies)
        policies.push_back(&rm::PolicyRegistry::instance().at(name));

    int op = 0;
    auto pass = [&](int threads, Tracer *t) {
        const VerdictPass p =
            runVerdictPass(kernels, policies, threads, t, op, report);
        op += p.verdicts;
        return p;
    };
    const bool tracing = closedLoop(
        ctx, report,
        [&] {
            VerdictPass warm;
            for (int i = 0; i < kWarmUpPasses; ++i)
                warm = pass(ctx.threads, nullptr);
            return PassShape{warm.verdicts, warm.interpreted};
        },
        [&] {
            VerdictPass p = pass(ctx.threads, nullptr);
            return TimedPass{p.seconds, std::move(p.latencies)};
        },
        "verdict");
    if (!tracing)
        return report;

    // Traced run, one thread: untraced and traced passes alternate for
    // the budget.
    const std::int64_t traced_start = nowNs();
    double plain_s = 0, traced_s = 0;
    VerdictPass last;
    std::uint64_t interpreted = 0;
    while (secondsSince(traced_start) < ctx.seconds || traced_s == 0) {
        plain_s += pass(1, nullptr).seconds;
        last = pass(1, &tracer);
        traced_s += last.seconds;
        interpreted += last.interpreted;
    }

    // Translation validation's cost: the same compiles with it off.
    std::vector<double> with_tv, without_tv;
    for (int rep = 0; rep < 3; ++rep)
        for (const VerifyKernel &k : kernels)
            for (const rm::PolicySpec *policy : policies)
                for (bool tv : {true, false}) {
                    rm::CompileOptions options;
                    options.translationValidate = tv;
                    const std::int64_t t0 = nowNs();
                    const rm::PolicyCompile c =
                        policy->compile(k.program, k.config, options);
                    const double ms =
                        static_cast<double>(nowNs() - t0) * 1e-6;
                    (tv ? with_tv : without_tv).push_back(ms);
                    if (c.program.size() == 0)
                        throw std::runtime_error("empty compile output");
                }

    const auto totals = totalsByName(tracer.spans());
    std::uint64_t static_insts = 0;
    for (const VerifyKernel &k : kernels)
        static_insts += k.program.size();

    Layers layers;
    layers.buildMs = meanSelfMs(totals, "workloads/buildKernel");
    layers.staticInsts = static_cast<double>(static_insts);
    layers.compileMs = meanSelfMs(totals, "compiler/PolicySpec::compile");
    layers.tvMs = median(with_tv) - median(without_tv);
    layers.validateMs = meanSelfMs(totals, "compiler/validateRegMutex");
    layers.addedInsts = static_cast<double>(last.addedInsts);
    layers.enabledFrac =
        static_cast<double>(last.rmxEnabled) / last.verdicts;
    layers.lintMs = meanSelfMs(totals, "analysis/runLints");
    layers.findings = static_cast<double>(last.findings);
    layers.interpMs = meanSelfMs(totals, "sim/interpret");
    const auto interp = totals.find("sim/interpret");
    layers.nsPerInst =
        interp == totals.end() || interpreted == 0
            ? 0.0
            : static_cast<double>(interp->second.selfNs) /
                  static_cast<double>(interpreted);
    std::tie(layers.gmemInitMs, layers.gmemDigestMs) = globalMemoryCosts();
    layers.traceOverheadFrac = traced_s / plain_s - 1.0;
    addLayers(report, layers);

    if (!ctx.spansPath.empty())
        tracer.write(ctx.spansPath);
    return report;
}

} // namespace perfbench

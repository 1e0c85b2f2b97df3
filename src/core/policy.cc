#include "core/policy.hh"

#include <utility>

#include "baselines/baseline.hh"
#include "baselines/owf.hh"
#include "baselines/rfv.hh"
#include "common/errors.hh"
#include "compiler/edit.hh"
#include "regmutex/allocator.hh"

namespace rm {

namespace {

/** Identity compilation for policies that execute the input as-is. */
PolicyCompile
passThrough(const Program &program, const GpuConfig &,
            const CompileOptions &)
{
    return PolicyCompile{program, std::nullopt};
}

/** The RegMutex pipeline; the SMs execute its output with directives. */
PolicyCompile
compileWithDirectives(const Program &program, const GpuConfig &config,
                      const CompileOptions &options)
{
    CompileResult compiled = compileRegMutex(program, config, options);
    Program executed = compiled.program;
    return PolicyCompile{std::move(executed), std::move(compiled)};
}

/** One SM's @p Allocator prepared over @p program, with its mapper. */
template <typename Allocator>
PreparedAllocator
prepareMapped(const GpuConfig &config, const Program &program)
{
    auto allocator = std::make_unique<Allocator>();
    allocator->prepare(config, program);
    PreparedAllocator prepared;
    prepared.mapper = allocator->makeMapper();
    prepared.allocator = std::move(allocator);
    return prepared;
}

PolicySpec
baselinePolicy()
{
    PolicySpec spec;
    spec.name = "baseline";
    spec.summary = "static exclusive per-warp allocation (paper Sec. II)";
    spec.compile = passThrough;
    spec.allocator = prepareMapped<BaselineAllocator>;
    return spec;
}

PolicySpec
regmutexPolicy()
{
    PolicySpec spec;
    spec.name = "regmutex";
    spec.summary = "pooled SRP time-sharing (paper Sec. III-B)";
    spec.compile = compileWithDirectives;
    spec.allocator = prepareMapped<RegMutexAllocator>;
    return spec;
}

PolicySpec
pairedPolicy()
{
    PolicySpec spec;
    spec.name = "paired";
    spec.summary = "paired-warps RegMutex specialization (Sec. III-C)";
    spec.compile = compileWithDirectives;
    spec.allocator = prepareMapped<PairedRegMutexAllocator>;
    return spec;
}

PolicySpec
owfPolicy()
{
    PolicySpec spec;
    spec.name = "owf";
    spec.summary =
        "Jatala et al. pairwise sharing with owner-warp-first scheduling";
    // OWF shares the same compacted upper register set as RegMutex but
    // drives it with hardware locks instead of directives, so the
    // executed program is the RegMutex compilation with the directives
    // stripped.
    spec.compile = [](const Program &program, const GpuConfig &config,
                      const CompileOptions &options) {
        CompileResult compiled = compileRegMutex(program, config, options);
        Program executed = stripDirectives(compiled.program);
        return PolicyCompile{std::move(executed), std::move(compiled)};
    };
    spec.allocator = [](const GpuConfig &config, const Program &program) {
        auto allocator = std::make_unique<OwfAllocator>();
        allocator->prepare(config, program);
        PreparedAllocator prepared;
        prepared.allocator = std::move(allocator);
        return prepared;
    };
    // The stripped program accesses extended registers with no acquire
    // in sight — that is the point of OWF's hardware locking.
    spec.lintSuppressions = {"RM001"};
    return spec;
}

} // namespace

PolicySpec
makeRfvPolicy(double provisioning, std::string name)
{
    PolicySpec spec;
    spec.name = std::move(name);
    spec.summary = "Jeon et al. register file virtualization";
    spec.compile = passThrough;
    spec.allocator = [provisioning](const GpuConfig &config,
                                    const Program &program) {
        auto allocator = std::make_unique<RfvAllocator>(provisioning);
        allocator->prepare(config, program);
        PreparedAllocator prepared;
        prepared.allocator = std::move(allocator);
        return prepared;
    };
    return spec;
}

PolicyRegistry::PolicyRegistry()
{
    auto put = [&](PolicySpec spec) {
        std::string key = spec.name;
        specs.emplace(std::move(key), std::move(spec));
    };
    put(baselinePolicy());
    put(regmutexPolicy());
    put(pairedPolicy());
    put(owfPolicy());
    put(makeRfvPolicy(0.25));
}

const PolicyRegistry &
PolicyRegistry::instance()
{
    static const PolicyRegistry registry;
    return registry;
}

const PolicySpec *
PolicyRegistry::find(const std::string &name) const
{
    const auto it = specs.find(name);
    return it == specs.end() ? nullptr : &it->second;
}

const PolicySpec &
PolicyRegistry::at(const std::string &name) const
{
    const PolicySpec *spec = find(name);
    if (!spec) {
        std::string known;
        for (const std::string &n : names())
            known += known.empty() ? n : ", " + n;
        fatal("unknown policy '", name, "' (known: ", known, ")");
    }
    return *spec;
}

std::vector<std::string>
PolicyRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(specs.size());
    for (const auto &[name, spec] : specs)
        out.push_back(name);
    return out;
}

} // namespace rm

#ifndef RM_CORE_EXPERIMENT_HH
#define RM_CORE_EXPERIMENT_HH

/**
 * @file
 * Public entry point of the RegMutex library: runPolicy() compiles a
 * kernel for a policy from the registry (core/policy.hh) and simulates
 * it on the multi-SM Gpu engine (sim/gpu.hh) — any registered policy,
 * representative or full-machine mode, per-SM breakdowns:
 *
 *     auto base = rm::runPolicy("baseline", program, config);
 *     auto rmx  = rm::runPolicy("regmutex", program, config);
 *     std::cout << rm::cycleReduction(base.stats(), rmx.stats());
 */

#include <string>

#include "compiler/pipeline.hh"
#include "core/policy.hh"
#include "isa/program.hh"
#include "sim/config.hh"
#include "sim/gpu.hh"
#include "sim/stats.hh"

namespace rm {

/** Knobs of one runPolicy() invocation. */
struct RunOptions
{
    CompileOptions compile;
    /**
     * Engine options: mode (Representative vs FullMachine), SM
     * parallelism, memory seed, and observability sinks (gpu.obs
     * attaches to SM 0; gpu.sinksForSm covers every SM).
     */
    GpuOptions gpu;
};

/** Result of one policy run: compiler output plus the engine result. */
struct PolicyRun
{
    PolicyCompile compile;
    GpuResult result;

    /** Machine-level statistics (the per-SM breakdown is in result). */
    const SimStats &stats() const { return result.aggregate; }
};

/** Compile and simulate @p program under the registered @p policy. */
PolicyRun runPolicy(const std::string &policy, const Program &program,
                    const GpuConfig &config,
                    const RunOptions &options = {});

/** Same, with an unregistered (ad-hoc) policy specification. */
PolicyRun runPolicy(const PolicySpec &policy, const Program &program,
                    const GpuConfig &config,
                    const RunOptions &options = {});

} // namespace rm

#endif // RM_CORE_EXPERIMENT_HH

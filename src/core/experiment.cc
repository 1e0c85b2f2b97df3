#include "core/experiment.hh"

namespace rm {

PolicyRun
runPolicy(const PolicySpec &policy, const Program &program,
          const GpuConfig &config, const RunOptions &options)
{
    PolicyRun run;
    run.compile = policy.compile(program, config, options.compile);
    run.result =
        simulateGpu(config, run.compile.program, policy.allocator,
                    options.gpu);
    return run;
}

PolicyRun
runPolicy(const std::string &policy, const Program &program,
          const GpuConfig &config, const RunOptions &options)
{
    return runPolicy(PolicyRegistry::instance().at(policy), program,
                     config, options);
}

} // namespace rm

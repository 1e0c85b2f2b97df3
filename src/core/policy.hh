#ifndef RM_CORE_POLICY_HH
#define RM_CORE_POLICY_HH

/**
 * @file
 * Policy registry: every register-allocation policy the repository
 * evaluates is described by one PolicySpec — how to compile a kernel
 * for it and how to build one SM's allocator instance — and looked up
 * by name. runPolicy() (core/experiment.hh), the sweep runner
 * (core/sweep.hh), the benches and rm-inspect all draw policies from
 * here instead of hand-rolling per-policy compiler/allocator stacks.
 *
 * The registry holds the five built-ins: "baseline", "regmutex",
 * "paired", "owf", "rfv". A variant (e.g. makeRfvPolicy() with a
 * different provisioning) runs through runPolicy(const PolicySpec &).
 */

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "compiler/pipeline.hh"
#include "isa/program.hh"
#include "sim/config.hh"
#include "sim/gpu.hh"

namespace rm {

/** A policy's compilation outcome. */
struct PolicyCompile
{
    /** The program the SMs execute (possibly transformed). */
    Program program;
    /**
     * Compiler metadata when the policy runs the RegMutex pipeline
     * (regmutex / paired / owf); empty for policies that execute the
     * input unchanged (baseline / rfv).
     */
    std::optional<CompileResult> compile;
};

/** One registered register-allocation policy. */
struct PolicySpec
{
    /** Registry key and report label ("baseline", "regmutex", ...). */
    std::string name;
    /** One-line description for --help style listings. */
    std::string summary;
    /**
     * Compile @p program for this policy. Must be pure: the sweep
     * runner invokes it concurrently from worker threads.
     */
    std::function<PolicyCompile(const Program &, const GpuConfig &,
                                const CompileOptions &)>
        compile;
    /**
     * Build and prepare one SM's allocator over the *compiled*
     * program (PolicyCompile::program). Invoked once per simulated SM
     * by the Gpu engine; see AllocatorFactory for the thread-safety
     * contract.
     */
    AllocatorFactory allocator;
    /**
     * Lint check ids (analysis/lint.hh) the sweep runner's static gate
     * suppresses for this policy's compiled programs. OWF executes a
     * directive-stripped program whose acquire semantics live in
     * hardware locks, so the path-sensitive hold-state check does not
     * apply to it.
     */
    std::vector<std::string> lintSuppressions;
};

/**
 * The five built-in policies by name, built once and never changed,
 * so lookups from any thread need no lock. The PolicySpec pointers and
 * references returned stay valid for the process lifetime.
 */
class PolicyRegistry
{
  public:
    /** The process-wide registry. */
    static const PolicyRegistry &instance();

    /** Lookup; nullptr when unknown. */
    const PolicySpec *find(const std::string &name) const;

    /** Lookup; throws FatalError naming the known policies when unknown. */
    const PolicySpec &at(const std::string &name) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

  private:
    PolicyRegistry();

    std::map<std::string, PolicySpec> specs;
};

/**
 * An RFV PolicySpec with a custom occupancy provisioning (the built-in
 * "rfv" uses the paper's 0.25), for runPolicy(const PolicySpec &).
 */
PolicySpec makeRfvPolicy(double provisioning,
                         std::string name = "rfv");

} // namespace rm

#endif // RM_CORE_POLICY_HH

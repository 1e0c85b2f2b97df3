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
 * Built-ins: "baseline", "regmutex", "paired", "owf", "rfv". New
 * policies (or parameterized variants, e.g. a different RFV
 * provisioning) register through PolicyRegistry::add() and are then
 * available to every consumer, including sweep grids, by name.
 */

#include <functional>
#include <map>
#include <mutex>
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
 * Name-indexed policy registry. The singleton instance() comes
 * pre-populated with the five built-in policies; add() registers (or
 * replaces) additional ones. All operations are thread-safe; the
 * PolicySpec pointers/references returned stay valid for the
 * registry's lifetime.
 */
class PolicyRegistry
{
  public:
    /** The process-wide registry, built-ins pre-registered. */
    static PolicyRegistry &instance();

    /** Register @p spec, replacing any existing policy of that name. */
    void add(PolicySpec spec);

    /** Lookup; nullptr when unknown. */
    const PolicySpec *find(const std::string &name) const;

    /** Lookup; throws FatalError naming the known policies when unknown. */
    const PolicySpec &at(const std::string &name) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

  private:
    PolicyRegistry();

    mutable std::mutex guard;
    /** Node-stable container: spec addresses survive later add()s. */
    std::map<std::string, PolicySpec> specs;
};

/**
 * An RFV PolicySpec with a custom occupancy provisioning (the built-in
 * "rfv" uses the paper's 0.25). Register it under a distinct name to
 * sweep provisioning levels.
 */
PolicySpec makeRfvPolicy(double provisioning,
                         std::string name = "rfv");

} // namespace rm

#endif // RM_CORE_POLICY_HH

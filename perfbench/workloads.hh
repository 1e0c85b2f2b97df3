#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

/**
 * @file
 * The benchmark's three workloads. Each is a closed loop: one unit of
 * work at a time (a sweep pass of cells, a full-machine run, a pass of
 * verdicts), the next submitted only when the previous one finished
 * and was checked.
 * README.md records why each exists and which layer it isolates.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/policy.hh"
#include "core/sweep.hh"
#include "harness.hh"
#include "isa/program.hh"
#include "sim/config.hh"
#include "sim/gpu.hh"

namespace perfbench {

/** Seed roles: each workload derives its own inputs from --seed. */
enum SeedRole : std::uint64_t {
    kOrderRole = 1,     ///< figures: submission order of the cells
    kPreemptRole = 2,   ///< machine-preempt: preemption cycle
    kScrambleRole = 3,  ///< compile-verify: register scramble
};

/**
 * PolicySpec::allocator, wrapped in a span named after its module when
 * @p tracer is set (the engine calls it once per SM, from pool threads).
 */
rm::AllocatorFactory timedAllocator(const rm::PolicySpec &policy,
                                    Tracer *tracer, int parent, int op);

/** Host cost of one simulation and what it simulated. */
struct SimCost
{
    std::string policy;
    double hostNs = 0;
    /** Simulated cycles summed over the SMs it ran. */
    double smCycles = 0;
    rm::SimStats stats;
};

/**
 * Fill the host-time-per-simulated-event metrics (per policy, and for
 * the cells above / at-or-below the median idle-slot share) and the
 * exact RegMutex ratios of the "regmutex" simulations in @p costs.
 */
void addSimCosts(Layers &layers, const std::vector<SimCost> &costs);

// ---------------------------------------------------------------- figures

/** "workload|policy|arch": the identity of one figure cell. */
std::string cellKey(const rm::SweepCase &cell);

/**
 * The deduplicated union of the fig07 / fig08 / fig09a / fig09b sweep
 * grids, in the benches' own declaration order (72 cells).
 */
std::vector<rm::SweepCase> figureGrid();

/** One runSweep pass over a (permuted) grid, checked cell by cell. */
struct FiguresPass
{
    double seconds = 0.0;
    int cells = 0;
    int failed = 0;
    std::uint64_t instructions = 0;
    /** Results by cellKey, for the figure averages and seed checks. */
    std::map<std::string, rm::SimStats> stats;
    std::vector<std::string> errors;
};
FiguresPass runFiguresPass(const std::vector<rm::SweepCase> &grid,
                           const std::map<std::string, rm::SimStats> &expected,
                           std::uint64_t order_seed, int threads,
                           Tracer *tracer);

RunReport runFigures(const RunContext &ctx);

// -------------------------------------------------------- machine-preempt

/** One full-machine run: a kernel under a policy on all 15 SMs. */
struct MachineCase
{
    std::string workload;
    std::string policy;
    std::string key;  ///< "workload|policy"
    rm::Program program;
    const rm::PolicySpec *spec = nullptr;
    rm::SimStats expected;
    std::vector<rm::SimStats> expectedPerSm;
};

/** The four kernels × two policies, with their expected outputs. */
std::vector<MachineCase> machineCases(const std::string &expected_path);

/**
 * One checked run: preempted at a cycle, resumed to completion. A run
 * that throws is a failed op, not a failed benchmark.
 */
struct MachineOutcome
{
    bool ok = true;
    std::string why;
    double seconds = 0.0;
    std::uint64_t instructions = 0;
    int captures = 0;
    std::size_t finalSnapshotBytes = 0;
};
MachineOutcome runMachine(const MachineCase &mc, std::uint64_t preempt_cycle,
                          bool periodic_snapshots, int threads,
                          Tracer *tracer, int op);

/** Seed-chosen preemption cycle of op @p op for @p mc. */
std::uint64_t preemptCycle(const MachineCase &mc, std::uint64_t seed, int op);

RunReport runMachinePreempt(const RunContext &ctx);

// --------------------------------------------------------- compile-verify

/** One Table I kernel as compile-verify rebuilds it. */
struct VerifyKernel
{
    std::string name;
    rm::Program program;
    rm::GpuConfig config;
};

/** The 16 Table I specs with a scramble chosen by @p seed, one CTA each. */
std::vector<VerifyKernel> verifyKernels(std::uint64_t seed, Tracer *tracer);

/** One pass of verdicts: every kernel under every policy. */
struct VerdictPass
{
    double seconds = 0.0;
    std::vector<double> latencies;  ///< seconds, one per verdict
    std::uint64_t interpreted = 0;
    std::int64_t addedInsts = 0;
    std::int64_t findings = 0;
    int rmxEnabled = 0;
    int verdicts = 0;
};

/**
 * Run one pass over at most @p threads threads and check each verdict
 * into @p report; op ids start at @p first_op. A verdict that throws
 * is a failed op.
 */
VerdictPass runVerdictPass(const std::vector<VerifyKernel> &kernels,
                           const std::vector<const rm::PolicySpec *> &policies,
                           int threads, Tracer *tracer, int first_op,
                           RunReport &report);

RunReport runCompileVerify(const RunContext &ctx);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH

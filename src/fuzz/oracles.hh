#ifndef RM_FUZZ_ORACLES_HH
#define RM_FUZZ_ORACLES_HH

/**
 * @file
 * Oracle registry for the differential fuzzer. An oracle inspects one
 * FuzzCase through a shared CaseLab (which memoizes the expensive
 * policy runs so five oracles don't re-simulate the same spec) and
 * reports findings: each finding carries a *signature* — oracle id plus
 * failure class — that the triage layer (fuzz/triage.hh) dedupes on and
 * the minimizer (fuzz/minimize.hh) preserves while shrinking.
 *
 * The registered oracles check exactly the guarantees the repo already
 * claims elsewhere:
 *
 *  - "differential": cross-policy invariants over all five registered
 *    policies — the baseline at a fitting register file never wedges,
 *    completed runs retire the whole grid, committed instructions are
 *    conserved across policies that execute the same program, and
 *    structural stat bounds (successes <= attempts, occupancy in
 *    (0, 1], fault counters zero without a plan, per-policy
 *    always-zero counters) hold for every outcome.
 *  - "determinism": 1-thread vs 8-thread FullMachine runs bit-compare
 *    equal (SimStats operator==). Throwing runs compare by outcome
 *    class only: which SM's exception surfaces first under SM-level
 *    parallelism is a wall-clock race by design.
 *  - "preempt-resume": preempting the focus policy at the fuzzed
 *    snapshot cycle and resuming reproduces the uninterrupted run
 *    bit-exactly (the PR 5 invariant, here on fuzzed cases).
 *  - "sanitize": the per-epoch register-accounting audit neither
 *    false-positives on healthy fuzzed runs nor perturbs their stats,
 *    and catches an injected state corruption within ~one epoch of it
 *    landing.
 *  - "codec": every serialization boundary round-trips — snapshot
 *    bytes, stats JSON, asm emit->parse, the fuzz repro JSON itself.
 *
 * The PlantedBug hook seeds one known bug per oracle (stats drift,
 * thread skew, resume skew, a suppressed sanitizer, codec damage) so
 * tests/test_fuzz.cc can prove each oracle actually catches its bug
 * class — a fuzzer whose oracles silently pass everything is worse
 * than no fuzzer.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fuzz/gen.hh"
#include "sim/gpu.hh"
#include "sim/stats.hh"

namespace rm {

/** One oracle violation. */
struct OracleFinding
{
    /** Registered oracle id ("differential", "codec", ...). */
    std::string oracle;
    /** Dedupe key: oracle id + failure class (+ cause/error type). */
    std::string signature;
    /** Human-readable detail (never part of the dedupe identity). */
    std::string message;
};

/**
 * Known bug classes the self-test plants to prove oracle coverage.
 * Each maps to exactly one oracle (plantedBugCatalog()).
 */
enum class PlantedBug {
    None,
    StatsDrift,        ///< perturbed RFV stats -> "differential"
    ThreadSkew,        ///< perturbed 8-thread stats -> "determinism"
    ResumeSkew,        ///< perturbed resumed stats -> "preempt-resume"
    MissedCorruption,  ///< sanitizer suppressed -> "sanitize"
    CodecDamage,       ///< snapshot bytes damaged -> "codec"
};

/** Stable lower-case label ("none", "stats-drift", ...). */
const char *plantedBugName(PlantedBug bug);

/** How one simulation of a case ended. */
struct RunOutcome
{
    enum class Kind {
        Completed,     ///< ran the grid to retirement
        Preempted,     ///< stopped by maxCycles; snapshot captured
        Deadlocked,    ///< declared deadlock (stats carry the cause)
        Watchdog,      ///< watchdog expiry (SimulationError)
        Sanitizer,     ///< sanitizer audit failed (SanitizerError)
        CompileError,  ///< the policy compiler rejected the kernel
        Error,         ///< any other FatalError
    };

    Kind kind = Kind::Completed;
    bool hasStats = false;
    SimStats stats;  ///< valid for Completed / Preempted / Deadlocked
    /** Per-SM breakdown when hasStats (SM 0 is the faulted SM). */
    std::vector<SimStats> perSm;
    /** Audit cycle of a Sanitizer outcome. */
    std::uint64_t sanitizerCycle = 0;
    /** what() of a throwing outcome. */
    std::string message;
    /** Engine snapshot of a Preempted outcome. */
    std::shared_ptr<const GpuSnapshot> snapshot;
};

/** Stable lower-case label ("completed", "watchdog", ...). */
const char *runOutcomeKindName(RunOutcome::Kind kind);

/** Parameters of one memoized case simulation. */
struct RunSpec
{
    std::string policy;
    int threads = 1;
    bool sanitize = false;
    /** Drop corruptStateAtCycle from the fault plan for this run. */
    bool stripCorrupt = false;
    /** Preempt at this simulated cycle (0: run to completion). */
    std::uint64_t maxCycles = 0;
};

/**
 * Shared per-case execution context: builds the program once, memoizes
 * every (policy, threads, sanitize, stripCorrupt, maxCycles) run, and
 * applies the planted bug (if any) at the layer the bug class lives in.
 * All runs use FullMachine mode with faultSm = 0 and the same memory
 * seed, matching the determinism contract the oracles check.
 */
class CaseLab
{
  public:
    CaseLab(FuzzCase fuzz_case, PlantedBug planted = PlantedBug::None);

    const FuzzCase &fuzzCase() const { return theCase; }
    PlantedBug planted() const { return plantedBug; }

    /** The case's program; built on first use. */
    const Program &program();

    /** The program the focus/differential policy actually executes. */
    const Program &compiledProgram(const std::string &policy);

    /** Memoized simulation of @p spec. */
    const RunOutcome &run(const RunSpec &spec);

    /** Resume @p snapshot (from a Preempted run of @p policy) to its
     *  terminal outcome. Not memoized — snapshots are not value keys. */
    RunOutcome resumeRun(const std::string &policy,
                         const std::shared_ptr<const GpuSnapshot> &snapshot);

  private:
    RunOutcome execute(const RunSpec &spec,
                       const std::shared_ptr<const GpuSnapshot> &resume);

    FuzzCase theCase;
    PlantedBug plantedBug;
    bool programBuilt = false;
    Program prog;
    std::map<std::string, Program> compiled;
    std::map<std::string, RunOutcome> memo;
};

/** One registered oracle. */
struct Oracle
{
    std::string id;
    std::string description;
    std::function<void(CaseLab &, std::vector<OracleFinding> &)> run;
};

/** The built-in oracle registry, in execution order. */
const std::vector<Oracle> &fuzzOracles();

/** Oracle selection + planted-bug hook for one runOracles() call. */
struct OracleOptions
{
    /** Oracle ids to run; empty runs all. Unknown ids throw FatalError. */
    std::vector<std::string> oracles;
    PlantedBug planted = PlantedBug::None;
};

/**
 * Run the selected oracles over @p fuzz_case and return every finding.
 * An oracle that itself throws is converted into a finding (signature
 * "<id>:oracle-exception") instead of aborting the campaign.
 */
std::vector<OracleFinding> runOracles(const FuzzCase &fuzz_case,
                                      const OracleOptions &options = {});

/** One self-test entry: a planted bug and the oracle that must see it. */
struct PlantedBugInfo
{
    PlantedBug bug;
    const char *name;    ///< plantedBugName(bug)
    const char *oracle;  ///< oracle id expected to report a finding
};

/** Every planted bug class, one per registered oracle. */
const std::vector<PlantedBugInfo> &plantedBugCatalog();

/**
 * A deterministic case suited to @p bug: long enough to preempt at its
 * snapshot cycle, RFV-focused (whose corruption fault always lands),
 * with a corrupt-only fault plan exactly when the bug class needs one.
 */
FuzzCase plantedBugCase(PlantedBug bug);

} // namespace rm

#endif // RM_FUZZ_ORACLES_HH

#ifndef RM_ANALYSIS_ACQUIRE_STATE_HH
#define RM_ANALYSIS_ACQUIRE_STATE_HH

/**
 * @file
 * Path-sensitive acquire/release hold-state analysis: for every program
 * point, is the extended register set guaranteed held, guaranteed not
 * held, held on only some incoming paths, or unreachable? This is the
 * forward dataflow the seed validator ran privately; it is now an
 * instance of the generic solver (analysis/dataflow.hh) shared by the
 * lint checks (analysis/lint.hh) and the compiler's validator wrapper
 * (compiler/validator.hh).
 */

#include <cstdint>
#include <vector>

#include "analysis/cfg.hh"
#include "isa/program.hh"

namespace rm {

/** Four-point lattice over the acquire state at a program point. */
enum class HoldState : std::uint8_t {
    Unreached = 0,  ///< no path reaches this point (lattice top)
    NotHeld = 1,
    Held = 2,
    Mixed = 3,      ///< held on some incoming paths only (bottom)
};

/** Lattice meet: Unreached is the identity, disagreement is Mixed. */
HoldState meetHold(HoldState a, HoldState b);

/** True when @p inst reads or writes a register index >= @p base_regs. */
bool referencesExtended(const Instruction &inst, int base_regs);

/** Stable lower-case label ("unreached", "not-held", ...). */
const char *holdStateName(HoldState state);

/** Fixpoint of the hold-state dataflow over one program. */
class AcquireState
{
  public:
    /** Compute hold states for @p program over @p cfg. */
    static AcquireState compute(const Program &program, const Cfg &cfg);

    /** State at the exit of block @p block. */
    HoldState blockOut(int block) const { return blockOuts[block]; }

    /** State immediately before instruction @p inst executes. */
    HoldState before(int inst) const { return instIns[inst]; }

    /** State immediately after instruction @p inst executes. */
    HoldState after(int inst) const;

  private:
    std::vector<HoldState> blockOuts;
    std::vector<HoldState> instIns;
    const Program *program = nullptr;
};

/** Directive census over one program under a computed hold state. */
struct DirectiveCounts
{
    int acquires = 0;
    int releases = 0;
    /** Acquires reached while possibly already held (no-op by spec). */
    int redundantAcquires = 0;
    /** Releases reached while possibly not held (no-op by spec). */
    int redundantReleases = 0;
};

/**
 * Count directives and the redundant (no-effect) subset among them.
 * Directives in unreachable blocks count toward acquires/releases but
 * never toward the redundant tallies (no execution reaches them).
 */
DirectiveCounts countDirectives(const Program &program,
                                const AcquireState &state);

} // namespace rm

#endif // RM_ANALYSIS_ACQUIRE_STATE_HH

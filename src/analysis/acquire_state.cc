#include "analysis/acquire_state.hh"

#include "analysis/dataflow.hh"
#include "common/errors.hh"

namespace rm {

HoldState
meetHold(HoldState a, HoldState b)
{
    if (a == HoldState::Unreached)
        return b;
    if (b == HoldState::Unreached)
        return a;
    if (a == b)
        return a;
    return HoldState::Mixed;
}

bool
referencesExtended(const Instruction &inst, int base_regs)
{
    if (inst.hasDst() && inst.dst >= base_regs)
        return true;
    for (int s = 0; s < inst.numSrcs; ++s)
        if (inst.srcs[s] >= base_regs)
            return true;
    return false;
}

const char *
holdStateName(HoldState state)
{
    switch (state) {
      case HoldState::Unreached:
        return "unreached";
      case HoldState::NotHeld:
        return "not-held";
      case HoldState::Held:
        return "held";
      case HoldState::Mixed:
        return "mixed";
    }
    return "unknown";
}

namespace {

/** One instruction's effect on the hold state. */
HoldState
step(Opcode op, HoldState state)
{
    if (op == Opcode::RegAcquire)
        return HoldState::Held;
    if (op == Opcode::RegRelease)
        return HoldState::NotHeld;
    return state;
}

/** The hold-state lattice as a dataflow problem. */
struct HoldProblem
{
    using Value = HoldState;
    static constexpr DataflowDirection direction =
        DataflowDirection::Forward;

    const Program &program;
    const Cfg &cfg;

    Value boundary() const { return HoldState::NotHeld; }
    Value top() const { return HoldState::Unreached; }

    bool join(Value &into, const Value &from) const
    {
        const Value met = meetHold(into, from);
        const bool changed = met != into;
        into = met;
        return changed;
    }

    Value transfer(int block, const Value &in) const
    {
        Value state = in;
        for (int i = cfg.block(block).first; i <= cfg.block(block).last;
             ++i)
            state = step(program.code[i].op, state);
        return state;
    }
};

} // namespace

AcquireState
AcquireState::compute(const Program &program, const Cfg &cfg)
{
    const HoldProblem problem{program, cfg};
    const DataflowResult<HoldState> solved = solveDataflow(cfg, problem);

    AcquireState result;
    result.program = &program;
    result.blockOuts = solved.out;
    result.instIns.assign(program.code.size(), HoldState::Unreached);
    for (const BasicBlock &block : cfg.blocks()) {
        HoldState state = solved.in[block.id];
        for (int i = block.first; i <= block.last; ++i) {
            result.instIns[i] = state;
            state = step(program.code[i].op, state);
        }
    }
    return result;
}

HoldState
AcquireState::after(int inst) const
{
    panicIf(!program || inst < 0 ||
                inst >= static_cast<int>(instIns.size()),
            "AcquireState::after index ", inst, " out of range");
    return step(program->code[inst].op, instIns[inst]);
}

DirectiveCounts
countDirectives(const Program &program, const AcquireState &state)
{
    DirectiveCounts counts;
    for (std::size_t i = 0; i < program.code.size(); ++i) {
        const Opcode op = program.code[i].op;
        if (op != Opcode::RegAcquire && op != Opcode::RegRelease)
            continue;
        if (op == Opcode::RegAcquire)
            ++counts.acquires;
        else
            ++counts.releases;
        const HoldState before = state.before(static_cast<int>(i));
        if (before == HoldState::Unreached)
            continue;  // dead code: never executes
        if (op == Opcode::RegAcquire && before != HoldState::NotHeld)
            ++counts.redundantAcquires;
        if (op == Opcode::RegRelease && before != HoldState::Held)
            ++counts.redundantReleases;
    }
    return counts;
}

} // namespace rm

#ifndef RM_ISA_BUILDER_HH
#define RM_ISA_BUILDER_HH

/**
 * @file
 * ProgramBuilder: a small assembler DSL with forward-referencing labels
 * used by the synthetic workload generators and the tests to construct
 * kernels. finalize() resolves labels and verifies the program.
 */

#include <cstdint>
#include <vector>

#include "isa/program.hh"

namespace rm {

/**
 * Incremental kernel assembler. Emit instructions in order; branch
 * targets are labels that may be bound before or after use.
 */
class ProgramBuilder
{
  public:
    /** Opaque label handle. */
    using Label = int;

    explicit ProgramBuilder(KernelInfo info);

    /** Create a fresh, unbound label. */
    Label newLabel();

    /** Bind @p label to the next emitted instruction. */
    void bind(Label label);

    // --- Integer ALU ---
    void iadd(RegId d, RegId a, RegId b) { emit3(Opcode::IAdd, d, a, b); }
    void isub(RegId d, RegId a, RegId b) { emit3(Opcode::ISub, d, a, b); }
    void imul(RegId d, RegId a, RegId b) { emit3(Opcode::IMul, d, a, b); }
    void imin(RegId d, RegId a, RegId b) { emit3(Opcode::IMin, d, a, b); }
    void imax(RegId d, RegId a, RegId b) { emit3(Opcode::IMax, d, a, b); }
    void band(RegId d, RegId a, RegId b) { emit3(Opcode::And, d, a, b); }
    void bor(RegId d, RegId a, RegId b) { emit3(Opcode::Or, d, a, b); }
    void bxor(RegId d, RegId a, RegId b) { emit3(Opcode::Xor, d, a, b); }
    void shl(RegId d, RegId a, RegId b) { emit3(Opcode::Shl, d, a, b); }
    void shr(RegId d, RegId a, RegId b) { emit3(Opcode::Shr, d, a, b); }
    void imad(RegId d, RegId a, RegId b, RegId c);

    // --- Floating point / SFU ---
    void fadd(RegId d, RegId a, RegId b) { emit3(Opcode::FAdd, d, a, b); }
    void fmul(RegId d, RegId a, RegId b) { emit3(Opcode::FMul, d, a, b); }
    void ffma(RegId d, RegId a, RegId b, RegId c);
    void frcp(RegId d, RegId a) { emit2(Opcode::FRcp, d, a); }
    void fsqrt(RegId d, RegId a) { emit2(Opcode::FSqrt, d, a); }

    // --- Data movement ---
    void mov(RegId d, RegId a) { emit2(Opcode::Mov, d, a); }
    void movImm(RegId d, std::int64_t value);
    void readSreg(RegId d, SpecialReg sreg);
    void sel(RegId d, RegId cond, RegId a, RegId b);
    void setp(RegId d, CmpOp cmp, RegId a, RegId b);

    // --- Memory ---
    void ldGlobal(RegId d, RegId addr, std::int64_t offset = 0);
    void stGlobal(RegId addr, RegId value, std::int64_t offset = 0);
    void ldShared(RegId d, RegId addr, std::int64_t offset = 0);
    void stShared(RegId addr, RegId value, std::int64_t offset = 0);

    // --- Control flow ---
    void bra(Label label);
    void braNz(RegId cond, Label label);
    void braZ(RegId cond, Label label);
    void bar();
    void exitKernel();
    void nop();

    // --- RegMutex directives (normally injected by the compiler) ---
    void regAcquire();
    void regRelease();

    /**
     * Resolve labels, set numRegs to at least the maximum referenced
     * register, verify, and return the finished program. The builder
     * must not be reused afterwards.
     */
    Program finalize();

  private:
    KernelInfo info;
    std::vector<Instruction> code;
    /** label -> bound instruction index, or -1 while unbound. */
    std::vector<std::int32_t> labelTargets;
    /** (instruction index, label) pairs awaiting resolution. */
    std::vector<std::pair<std::size_t, Label>> fixups;
    bool finalized = false;

    Instruction &emit(Opcode op);
    void emit2(Opcode op, RegId d, RegId a);
    void emit3(Opcode op, RegId d, RegId a, RegId b);
    void checkLabel(Label label) const;
};

} // namespace rm

#endif // RM_ISA_BUILDER_HH

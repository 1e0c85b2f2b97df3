#ifndef RM_ISA_DISASM_HH
#define RM_ISA_DISASM_HH

/**
 * @file
 * Textual rendering of one instruction, used by lint and validator
 * diagnostics, hang forensics, trace export and the assembly emitter.
 */

#include <string>

#include "isa/program.hh"

namespace rm {

/** Render a single instruction, e.g. "iadd r3, r1, r2". */
std::string disassemble(const Instruction &inst);

} // namespace rm

#endif // RM_ISA_DISASM_HH

#include "isa/disasm.hh"

#include <sstream>

namespace rm {

std::string
disassemble(const Instruction &inst)
{
    std::ostringstream os;
    os << opcodeName(inst.op);
    if (inst.op == Opcode::Setp)
        os << "." << cmpName(static_cast<CmpOp>(inst.imm));

    bool first = true;
    auto sep = [&]() -> std::ostream & {
        os << (first ? " " : ", ");
        first = false;
        return os;
    };

    if (inst.hasDst())
        sep() << "r" << inst.dst;
    for (int s = 0; s < inst.numSrcs; ++s)
        sep() << "r" << inst.srcs[s];

    switch (inst.op) {
      case Opcode::MovImm:
        sep() << inst.imm;
        break;
      case Opcode::ReadSreg:
        sep() << "%sreg" << inst.imm;
        break;
      case Opcode::LdGlobal:
      case Opcode::StGlobal:
      case Opcode::LdShared:
      case Opcode::StShared:
        if (inst.imm > 0)
            sep() << "+" << inst.imm;
        else if (inst.imm < 0)
            sep() << inst.imm;
        break;
      default:
        break;
    }

    if (inst.isBranch())
        sep() << "-> " << inst.target;
    return os.str();
}

} // namespace rm

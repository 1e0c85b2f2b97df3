#include "workloads/suite.hh"

#include <fstream>
#include <iostream>
#include <sstream>

#include "common/errors.hh"
#include "isa/asm_parser.hh"

namespace rm {

// Kept out of suite.cc: static-library members link per object file,
// so a binary that only builds suite workloads (the benches,
// perfbench) does not also link the assembler.
Program
loadKernel(const std::string &target)
{
    const bool asm_file = target.size() > 4 &&
                          target.compare(target.size() - 4, 4, ".asm") == 0;
    if (target != "-" && !asm_file)
        return buildWorkload(target);
    std::ostringstream text;
    if (target == "-") {
        text << std::cin.rdbuf();
    } else {
        std::ifstream file(target);
        fatalIf(!file, "cannot open ", target);
        text << file.rdbuf();
    }
    return parseProgram(text.str());
}

} // namespace rm

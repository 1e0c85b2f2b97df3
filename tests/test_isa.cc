/**
 * @file
 * Unit tests for the ISA: instruction classification, the program
 * builder (labels, fixups), structural verification and disassembly.
 */

#include <gtest/gtest.h>

#include "common/errors.hh"
#include "isa/builder.hh"
#include "isa/disasm.hh"
#include "isa/program.hh"

namespace rm {
namespace {

KernelInfo
smallInfo()
{
    KernelInfo info;
    info.name = "t";
    info.numRegs = 8;
    info.ctaThreads = 64;
    info.gridCtas = 1;
    return info;
}

TEST(Instruction, Classification)
{
    Instruction bra;
    bra.op = Opcode::Bra;
    EXPECT_TRUE(bra.isBranch());
    EXPECT_TRUE(bra.isTerminator());
    EXPECT_FALSE(bra.isConditionalBranch());

    Instruction bnz;
    bnz.op = Opcode::BraNz;
    EXPECT_TRUE(bnz.isBranch());
    EXPECT_TRUE(bnz.isConditionalBranch());
    EXPECT_FALSE(bnz.isTerminator());

    Instruction ld;
    ld.op = Opcode::LdGlobal;
    EXPECT_TRUE(ld.isMemory());
    EXPECT_FALSE(ld.isBranch());
}

TEST(Instruction, LatencyClasses)
{
    EXPECT_EQ(latClass(Opcode::IAdd), LatClass::Alu);
    EXPECT_EQ(latClass(Opcode::FRcp), LatClass::Sfu);
    EXPECT_EQ(latClass(Opcode::LdGlobal), LatClass::GlobalMem);
    EXPECT_EQ(latClass(Opcode::StShared), LatClass::SharedMem);
    EXPECT_EQ(latClass(Opcode::Bar), LatClass::Barrier);
    EXPECT_EQ(latClass(Opcode::RegAcquire), LatClass::AcqRel);
    EXPECT_EQ(latClass(Opcode::Exit), LatClass::ExitClass);
}

TEST(Builder, ForwardAndBackwardLabels)
{
    ProgramBuilder b(smallInfo());
    const auto loop = b.newLabel();
    const auto done = b.newLabel();
    b.movImm(0, 3);
    b.bind(loop);
    b.movImm(1, 1);
    b.isub(0, 0, 1);
    b.braZ(0, done);   // forward reference
    b.bra(loop);       // backward reference
    b.bind(done);
    b.exitKernel();

    const Program p = b.finalize();
    EXPECT_EQ(p.code[3].target, 5);  // braZ -> exit
    EXPECT_EQ(p.code[4].target, 1);  // bra -> loop head
}

TEST(Builder, UnboundLabelFatals)
{
    ProgramBuilder b(smallInfo());
    const auto label = b.newLabel();
    b.bra(label);
    b.exitKernel();
    EXPECT_THROW(b.finalize(), FatalError);
}

TEST(Builder, DoubleBindFatals)
{
    ProgramBuilder b(smallInfo());
    const auto label = b.newLabel();
    b.bind(label);
    EXPECT_THROW(b.bind(label), FatalError);
}

TEST(Builder, NumRegsGrowsToMaxReferenced)
{
    KernelInfo info = smallInfo();
    info.numRegs = 1;
    ProgramBuilder b(info);
    b.movImm(5, 1);
    b.exitKernel();
    const Program p = b.finalize();
    EXPECT_EQ(p.info.numRegs, 6);
}

TEST(Verify, RejectsEmptyProgram)
{
    Program p;
    p.info = smallInfo();
    EXPECT_THROW(p.verify(), FatalError);
}

TEST(Verify, FinalizeRejectsFallOffEnd)
{
    ProgramBuilder b(smallInfo());
    b.movImm(0, 1);
    EXPECT_THROW(b.finalize(), FatalError);  // no terminator
}

TEST(Verify, FallOffEndDetected)
{
    Program p;
    p.info = smallInfo();
    Instruction inst;
    inst.op = Opcode::MovImm;
    inst.dst = 0;
    p.code.push_back(inst);
    EXPECT_THROW(p.verify(), FatalError);
}

TEST(Verify, RejectsOutOfRangeRegister)
{
    Program p;
    p.info = smallInfo();  // 8 regs
    Instruction inst;
    inst.op = Opcode::MovImm;
    inst.dst = 9;
    p.code.push_back(inst);
    Instruction ex;
    ex.op = Opcode::Exit;
    p.code.push_back(ex);
    EXPECT_THROW(p.verify(), FatalError);
}

TEST(Verify, RejectsBadBranchTarget)
{
    Program p;
    p.info = smallInfo();
    Instruction bra;
    bra.op = Opcode::Bra;
    bra.target = 99;
    p.code.push_back(bra);
    EXPECT_THROW(p.verify(), FatalError);
}

TEST(Verify, RejectsBadCtaShape)
{
    ProgramBuilder b(smallInfo());
    b.exitKernel();
    Program p = b.finalize();
    p.info.ctaThreads = 100;  // not a multiple of 32
    EXPECT_THROW(p.verify(), FatalError);
}

TEST(Verify, RegMutexMetadataConsistency)
{
    ProgramBuilder b(smallInfo());
    b.exitKernel();
    Program p = b.finalize();
    p.info.numRegs = 8;
    p.regmutex.baseRegs = 5;
    p.regmutex.extRegs = 2;  // 5 + 2 != 8
    EXPECT_THROW(p.verify(), FatalError);
    p.regmutex.extRegs = 3;
    EXPECT_NO_THROW(p.verify());
}

TEST(Disasm, RendersInstructions)
{
    ProgramBuilder b(smallInfo());
    b.movImm(1, 42);
    b.iadd(2, 1, 1);
    b.setp(3, CmpOp::Lt, 1, 2);
    b.ldGlobal(4, 2, 8);
    const auto label = b.newLabel();
    b.bind(label);
    b.braNz(3, label);
    b.exitKernel();
    const Program p = b.finalize();

    EXPECT_EQ(disassemble(p.code[0]), "movi r1, 42");
    EXPECT_EQ(disassemble(p.code[1]), "iadd r2, r1, r1");
    EXPECT_EQ(disassemble(p.code[2]), "setp.lt r3, r1, r2");
    EXPECT_EQ(disassemble(p.code[3]), "ld.global r4, r2, +8");
    EXPECT_EQ(disassemble(p.code[4]), "bra.nz r3, -> 4");
}

TEST(Program, MaxReferencedRegs)
{
    ProgramBuilder b(smallInfo());
    b.movImm(7, 1);
    b.exitKernel();
    const Program p = b.finalize();
    EXPECT_EQ(p.maxReferencedRegs(), 8);
}

} // namespace
} // namespace rm

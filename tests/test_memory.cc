/**
 * @file
 * Tests for the synthetic global/shared memories and the functional
 * instruction semantics.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/errors.hh"
#include "common/rng.hh"
#include "sim/memory.hh"
#include "sim/semantics.hh"

namespace rm {
namespace {

TEST(GlobalMemory, StoreConsistent)
{
    GlobalMemory mem(10);
    mem.store(123, 42);
    EXPECT_EQ(mem.load(123), 42);
}

TEST(GlobalMemory, AddressesWrap)
{
    GlobalMemory mem(10);  // 1024 words
    mem.store(5, 7);
    EXPECT_EQ(mem.load(5 + 1024), 7);
}

TEST(GlobalMemory, DeterministicInitialContents)
{
    GlobalMemory a(10, 99), b(10, 99);
    for (std::uint64_t addr = 0; addr < 64; ++addr)
        EXPECT_EQ(a.load(addr), b.load(addr));
    GlobalMemory c(10, 100);
    int same = 0;
    for (std::uint64_t addr = 0; addr < 64; ++addr)
        same += a.load(addr) == c.load(addr);
    EXPECT_LT(same, 4);
}

TEST(GlobalMemory, DigestReflectsContents)
{
    GlobalMemory a(8, 1), b(8, 1);
    EXPECT_EQ(a.digest(), b.digest());
    b.store(17, 1234567);
    EXPECT_NE(a.digest(), b.digest());
}

TEST(GlobalMemory, RejectsBadSize)
{
    EXPECT_THROW(GlobalMemory(1), FatalError);
    EXPECT_THROW(GlobalMemory(40), FatalError);
}

/** The digest of a full walk over every word of a dense memory. */
std::uint64_t
fullWalkDigest(const std::vector<std::int64_t> &words)
{
    std::uint64_t h = 0x2545f4914f6cdd1dULL;
    for (std::size_t i = 0; i < words.size(); ++i)
        h ^= detail::memoryMix(static_cast<std::uint64_t>(words[i]) + i);
    return h;
}

/**
 * The write-set against a dense reference array. The two take the
 * same seeded random stores and loads, through addresses that wrap up
 * to three times and with half of the stores writing a word's own
 * initial value (often undoing an earlier store). Every load must read
 * what the array reads. The snapshot diff must list exactly the words
 * that differ from their initial values, by ascending index. The
 * digest must move with the contents as a full walk's does. reset()
 * must make the memory pristine again.
 */
TEST(GlobalMemory, WriteSetMatchesDenseModel)
{
    for (const int log2 : {4, 8, 12}) {
        SCOPED_TRACE(log2);
        const std::uint64_t seed = 40 + static_cast<std::uint64_t>(log2);
        GlobalMemory mem(log2, seed);
        const GlobalMemory pristine(log2, seed);
        const std::size_t n = std::size_t{1} << log2;
        std::vector<std::int64_t> initial(n);
        for (std::size_t i = 0; i < n; ++i)
            initial[i] = mem.initialWord(i);
        std::vector<std::int64_t> dense = initial;

        Rng rng(seed);
        for (std::size_t op = 0; op < 8 * n; ++op) {
            const auto addr = static_cast<std::uint64_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(4 * n) - 1));
            const std::size_t index = addr & (n - 1);
            switch (rng.uniformInt(0, 3)) {
              case 0: {
                const auto value = static_cast<std::int64_t>(rng.next());
                mem.store(addr, value);
                dense[index] = value;
                break;
              }
              case 1:
                mem.store(addr, initial[index]);
                dense[index] = initial[index];
                break;
              default:
                ASSERT_EQ(mem.load(addr), dense[index]) << "addr " << addr;
            }
        }
        std::vector<GlobalMemory::Word> expected;
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(mem.load(i), dense[i]) << "word " << i;
            if (dense[i] != initial[i])
                expected.push_back({i, dense[i]});
        }
        ASSERT_FALSE(expected.empty());
        ASSERT_LT(expected.size(), n);

        const std::vector<GlobalMemory::Word> changed = mem.changedWords();
        ASSERT_EQ(changed.size(), expected.size());
        for (std::size_t k = 0; k < changed.size(); ++k) {
            EXPECT_EQ(changed[k].index, expected[k].index) << "entry " << k;
            EXPECT_EQ(changed[k].value, expected[k].value) << "entry " << k;
        }
        EXPECT_EQ(mem.digest() ^ pristine.digest(),
                  fullWalkDigest(dense) ^ fullWalkDigest(initial));
        EXPECT_NE(mem.digest(), pristine.digest());

        mem.reset();
        EXPECT_TRUE(mem.changedWords().empty());
        EXPECT_EQ(mem.digest(), pristine.digest());
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(mem.load(i), initial[i]) << "word " << i;
    }
}

TEST(GlobalMemory, LargestGeometryHoldsOnlyWhatIsStored)
{
    // 2^28 words would be 2 GiB held densely.
    GlobalMemory mem(28, 3);
    const std::uint64_t top = (std::uint64_t{1} << 28) - 1;
    ASSERT_EQ(mem.sizeWords(), top + 1);
    EXPECT_EQ(mem.load(top), mem.initialWord(top));
    mem.store(top, -5);
    EXPECT_EQ(mem.load(top), -5);
    EXPECT_EQ(mem.load(2 * top + 1), -5);  // wraps onto the top word
    const std::vector<GlobalMemory::Word> changed = mem.changedWords();
    ASSERT_EQ(changed.size(), 1u);
    EXPECT_EQ(changed[0].index, top);
}

TEST(SharedMemory, ZeroInitialisedAndWraps)
{
    SharedMemory mem(64);  // 8 words
    EXPECT_EQ(mem.load(3), 0);
    mem.store(3, 9);
    EXPECT_EQ(mem.load(3 + 8), 9);
}

TEST(SharedMemory, ZeroBytesStillOneWord)
{
    SharedMemory mem(0);
    EXPECT_EQ(mem.sizeWords(), 1u);
    mem.store(42, 5);
    EXPECT_EQ(mem.load(0), 5);
}

class SemanticsTest : public ::testing::Test
{
  protected:
    SemanticsTest() : gmem(10), smem(64)
    {
        program.info.numRegs = 8;
        program.info.ctaThreads = 64;
        regs.assign(8, 0);
        sregs = SpecialRegs::forWarp(program.info, 3, 1, 32);
    }

    StepResult
    run(Instruction inst)
    {
        program.code = {inst};
        return executeStep(program, 0, regs.data(), sregs, gmem, smem);
    }

    Program program;
    std::vector<std::int64_t> regs;
    SpecialRegs sregs;
    GlobalMemory gmem;
    SharedMemory smem;
};

Instruction
make3(Opcode op, RegId d, RegId a, RegId b)
{
    Instruction inst;
    inst.op = op;
    inst.dst = d;
    inst.srcs[0] = a;
    inst.srcs[1] = b;
    inst.numSrcs = 2;
    return inst;
}

TEST_F(SemanticsTest, IntegerAlu)
{
    regs[1] = 7;
    regs[2] = 5;
    run(make3(Opcode::IAdd, 0, 1, 2));
    EXPECT_EQ(regs[0], 12);
    run(make3(Opcode::ISub, 0, 1, 2));
    EXPECT_EQ(regs[0], 2);
    run(make3(Opcode::IMul, 0, 1, 2));
    EXPECT_EQ(regs[0], 35);
    run(make3(Opcode::IMin, 0, 1, 2));
    EXPECT_EQ(regs[0], 5);
    run(make3(Opcode::IMax, 0, 1, 2));
    EXPECT_EQ(regs[0], 7);
    run(make3(Opcode::Xor, 0, 1, 2));
    EXPECT_EQ(regs[0], 2);
    run(make3(Opcode::Shl, 0, 1, 2));
    EXPECT_EQ(regs[0], 224);
}

TEST_F(SemanticsTest, ShiftCountMasked)
{
    regs[1] = 1;
    regs[2] = 65;  // masked to 1
    run(make3(Opcode::Shl, 0, 1, 2));
    EXPECT_EQ(regs[0], 2);
}

TEST_F(SemanticsTest, SetpComparisons)
{
    regs[1] = 3;
    regs[2] = 4;
    Instruction inst = make3(Opcode::Setp, 0, 1, 2);
    inst.imm = static_cast<std::int64_t>(CmpOp::Lt);
    run(inst);
    EXPECT_EQ(regs[0], 1);
    inst.imm = static_cast<std::int64_t>(CmpOp::Ge);
    run(inst);
    EXPECT_EQ(regs[0], 0);
}

TEST_F(SemanticsTest, SelPicksByCondition)
{
    regs[1] = 1;
    regs[2] = 10;
    regs[3] = 20;
    Instruction inst;
    inst.op = Opcode::Sel;
    inst.dst = 0;
    inst.srcs = {1, 2, 3};
    inst.numSrcs = 3;
    run(inst);
    EXPECT_EQ(regs[0], 10);
    regs[1] = 0;
    run(inst);
    EXPECT_EQ(regs[0], 20);
}

TEST_F(SemanticsTest, SpecialRegisters)
{
    Instruction inst;
    inst.op = Opcode::ReadSreg;
    inst.dst = 0;
    inst.imm = static_cast<std::int64_t>(SpecialReg::CtaId);
    run(inst);
    EXPECT_EQ(regs[0], 3);
    inst.imm = static_cast<std::int64_t>(SpecialReg::WarpInCta);
    run(inst);
    EXPECT_EQ(regs[0], 1);
    inst.imm = static_cast<std::int64_t>(SpecialReg::WarpsPerCta);
    run(inst);
    EXPECT_EQ(regs[0], 2);  // 64 threads / 32
}

TEST_F(SemanticsTest, GlobalLoadStoreRoundTrip)
{
    regs[1] = 100;
    regs[2] = 77;
    Instruction st;
    st.op = Opcode::StGlobal;
    st.srcs[0] = 1;
    st.srcs[1] = 2;
    st.numSrcs = 2;
    st.imm = 4;
    const StepResult st_result = run(st);
    EXPECT_TRUE(st_result.memAccess);
    EXPECT_TRUE(st_result.memIsGlobal);
    EXPECT_FALSE(st_result.memIsLoad);
    EXPECT_EQ(st_result.memAddr, 104u);

    Instruction ld;
    ld.op = Opcode::LdGlobal;
    ld.dst = 0;
    ld.srcs[0] = 1;
    ld.numSrcs = 1;
    ld.imm = 4;
    const StepResult ld_result = run(ld);
    EXPECT_TRUE(ld_result.memIsLoad);
    EXPECT_EQ(regs[0], 77);
}

TEST_F(SemanticsTest, BranchesSetNextPc)
{
    program.code.clear();
    Instruction bra;
    bra.op = Opcode::BraNz;
    bra.srcs[0] = 1;
    bra.numSrcs = 1;
    bra.target = 0;
    Instruction ex;
    ex.op = Opcode::Exit;
    program.code = {bra, ex};

    regs[1] = 1;
    auto taken = executeStep(program, 0, regs.data(), sregs, gmem, smem);
    EXPECT_EQ(taken.nextPc, 0);
    regs[1] = 0;
    auto fall = executeStep(program, 0, regs.data(), sregs, gmem, smem);
    EXPECT_EQ(fall.nextPc, 1);

    auto exit = executeStep(program, 1, regs.data(), sregs, gmem, smem);
    EXPECT_TRUE(exit.exited);
}

TEST_F(SemanticsTest, DirectiveAndBarrierFlags)
{
    Instruction acq;
    acq.op = Opcode::RegAcquire;
    EXPECT_TRUE(run(acq).acquire);
    Instruction rel;
    rel.op = Opcode::RegRelease;
    EXPECT_TRUE(run(rel).release);
    Instruction bar;
    bar.op = Opcode::Bar;
    EXPECT_TRUE(run(bar).barrier);
}

TEST_F(SemanticsTest, SfuOpsDeterministic)
{
    regs[1] = 12345;
    Instruction inst;
    inst.op = Opcode::FRcp;
    inst.dst = 0;
    inst.srcs[0] = 1;
    inst.numSrcs = 1;
    run(inst);
    const std::int64_t first = regs[0];
    run(inst);
    EXPECT_EQ(regs[0], first);
    EXPECT_NE(first, 12345);
}

} // namespace
} // namespace rm

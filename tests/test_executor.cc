#include <gtest/gtest.h>

#include <limits>

#include "func/arch_state.hh"
#include "func/executor.hh"
#include "isa/micro_op.hh"
#include "mem/memory.hh"

namespace slip
{
namespace
{

class ExecutorTest : public ::testing::Test
{
  protected:
    ExecutorTest()
        : port(mem), state(port)
    {
        state.setPc(0x1000);
    }

    /** Predecode `inst` at the current pc and execute it. */
    ExecResult
    exec(const StaticInst &inst, std::string *sink)
    {
        return executeMicro(state, predecode(inst, state.pc()), sink);
    }
    ExecResult exec(const StaticInst &inst) { return exec(inst, &output); }

    Memory mem;
    DirectMemPort port;
    ArchState state;
    std::string output;
};

// ---- parameterized binary ALU semantics ----

struct AluCase
{
    Opcode op;
    Word a, b;
    Word expect;
};

class AluSemantics : public ExecutorTest,
                     public ::testing::WithParamInterface<AluCase>
{
};

TEST_P(AluSemantics, ComputesExpectedValue)
{
    const AluCase &c = GetParam();
    state.writeReg(1, c.a);
    state.writeReg(2, c.b);
    const ExecResult r = exec({c.op, 3, 1, 2, 0});
    EXPECT_EQ(state.readReg(3), c.expect);
    EXPECT_TRUE(r.wroteReg);
    EXPECT_EQ(r.destValue, c.expect);
    EXPECT_EQ(r.nextPc, 0x1004u);
}

constexpr Word kMinS64 = 0x8000000000000000ull;

INSTANTIATE_TEST_SUITE_P(
    AluOps, AluSemantics,
    ::testing::Values(
        AluCase{Opcode::ADD, 5, 7, 12},
        AluCase{Opcode::ADD, ~0ull, 1, 0}, // wraparound
        AluCase{Opcode::SUB, 5, 7, Word(-2)},
        AluCase{Opcode::MUL, Word(-3), 4, Word(-12)},
        AluCase{Opcode::MULH, kMinS64, 2, ~0ull}, // high bits of -2^64
        AluCase{Opcode::DIV, Word(-7), 2, Word(-3)},
        AluCase{Opcode::DIV, 7, 0, ~0ull},          // div by zero
        AluCase{Opcode::DIV, kMinS64, Word(-1), kMinS64}, // overflow
        AluCase{Opcode::DIVU, ~0ull, 2, 0x7fffffffffffffffull},
        AluCase{Opcode::DIVU, 5, 0, ~0ull},
        AluCase{Opcode::REM, Word(-7), 2, Word(-1)},
        AluCase{Opcode::REM, 7, 0, 7},
        AluCase{Opcode::REM, kMinS64, Word(-1), 0},
        AluCase{Opcode::REMU, 7, 3, 1},
        AluCase{Opcode::REMU, 7, 0, 7},
        AluCase{Opcode::AND, 0xf0f0, 0xff00, 0xf000},
        AluCase{Opcode::OR, 0xf0f0, 0x0f0f, 0xffff},
        AluCase{Opcode::XOR, 0xff, 0x0f, 0xf0},
        AluCase{Opcode::SLL, 1, 63, 1ull << 63},
        AluCase{Opcode::SLL, 1, 64, 1}, // shift amount masked to 6 bits
        AluCase{Opcode::SRL, kMinS64, 63, 1},
        AluCase{Opcode::SRA, kMinS64, 63, ~0ull},
        AluCase{Opcode::SLT, Word(-1), 0, 1},
        AluCase{Opcode::SLT, 0, Word(-1), 0},
        AluCase{Opcode::SLTU, Word(-1), 0, 0}, // -1 is max unsigned
        AluCase{Opcode::SLTU, 0, Word(-1), 1}));

// ---- immediates ----

TEST_F(ExecutorTest, ImmediateOps)
{
    state.writeReg(1, 10);
    exec({Opcode::ADDI, 2, 1, 0, -3});
    EXPECT_EQ(state.readReg(2), 7u);
    exec({Opcode::ANDI, 2, 1, 0, 3});
    EXPECT_EQ(state.readReg(2), 2u);
    exec({Opcode::ORI, 2, 1, 0, 5});
    EXPECT_EQ(state.readReg(2), 15u);
    exec({Opcode::XORI, 2, 1, 0, -1}); // pseudo `not`
    EXPECT_EQ(state.readReg(2), ~10ull);
    exec({Opcode::SLLI, 2, 1, 0, 4});
    EXPECT_EQ(state.readReg(2), 160u);
    exec({Opcode::SRAI, 2, 1, 0, 1});
    EXPECT_EQ(state.readReg(2), 5u);
    exec({Opcode::SLTI, 2, 1, 0, 11});
    EXPECT_EQ(state.readReg(2), 1u);
    exec({Opcode::SLTIU, 2, 1, 0, 10});
    EXPECT_EQ(state.readReg(2), 0u);
}

TEST_F(ExecutorTest, LuiShiftsBy12)
{
    exec({Opcode::LUI, 5, 0, 0, 0x100});
    EXPECT_EQ(state.readReg(5), 0x100000u);
    state.setPc(0x1000);
    exec({Opcode::LUI, 5, 0, 0, -1});
    EXPECT_EQ(state.readReg(5), Word(-4096));
}

// ---- the zero register ----

TEST_F(ExecutorTest, ZeroRegisterIsImmutable)
{
    exec({Opcode::ADDI, 0, 0, 0, 99});
    EXPECT_EQ(state.readReg(0), 0u);
}

// ---- memory ----

TEST_F(ExecutorTest, StoreThenLoadRoundTrip)
{
    state.writeReg(1, 0x2000); // base
    state.writeReg(2, 0xdeadbeefcafebabeull);
    const ExecResult st = exec({Opcode::SD, 0, 1, 2, 8});
    EXPECT_TRUE(st.isMem);
    EXPECT_EQ(st.memAddr, 0x2008u);
    EXPECT_EQ(st.storeValue, 0xdeadbeefcafebabeull);

    const ExecResult ld = exec({Opcode::LD, 3, 1, 0, 8});
    EXPECT_EQ(state.readReg(3), 0xdeadbeefcafebabeull);
    EXPECT_EQ(ld.loadedValue, ld.destValue);
}

TEST_F(ExecutorTest, LoadSignAndZeroExtension)
{
    state.writeReg(1, 0x2000);
    mem.write(0x2000, 8, 0xffffffffffffff80ull);
    exec({Opcode::LB, 2, 1, 0, 0});
    EXPECT_EQ(state.readReg(2), Word(-128));
    exec({Opcode::LBU, 2, 1, 0, 0});
    EXPECT_EQ(state.readReg(2), 0x80u);
    exec({Opcode::LH, 2, 1, 0, 0});
    EXPECT_EQ(state.readReg(2), Word(-128));
    exec({Opcode::LW, 2, 1, 0, 4});
    EXPECT_EQ(state.readReg(2), ~0ull); // 0xffffffff sign-extended
    exec({Opcode::LWU, 2, 1, 0, 4});
    EXPECT_EQ(state.readReg(2), 0xffffffffull);
}

// ---- control flow ----

TEST_F(ExecutorTest, BranchTakenAndNotTaken)
{
    state.writeReg(1, 5);
    state.writeReg(2, 5);
    ExecResult r = exec({Opcode::BEQ, 0, 1, 2, 10});
    EXPECT_TRUE(r.isControl);
    EXPECT_TRUE(r.taken);
    EXPECT_EQ(r.target, 0x1000 + 40u);
    EXPECT_EQ(state.pc(), 0x1028u);

    state.setPc(0x1000);
    r = exec({Opcode::BNE, 0, 1, 2, 10});
    EXPECT_FALSE(r.taken);
    EXPECT_EQ(state.pc(), 0x1004u);
}

TEST_F(ExecutorTest, SignedVersusUnsignedBranches)
{
    state.writeReg(1, Word(-1));
    state.writeReg(2, 1);
    EXPECT_TRUE(exec({Opcode::BLT, 0, 1, 2, 4}).taken);
    state.setPc(0x1000);
    EXPECT_FALSE(exec({Opcode::BLTU, 0, 1, 2, 4}).taken);
    state.setPc(0x1000);
    EXPECT_TRUE(exec({Opcode::BGEU, 0, 1, 2, 4}).taken);
}

TEST_F(ExecutorTest, JalLinksAndJumps)
{
    const ExecResult r = exec({Opcode::JAL, 1, 0, 0, -4});
    EXPECT_EQ(state.readReg(1), 0x1004u);
    EXPECT_EQ(state.pc(), 0x1000u - 16u);
    EXPECT_TRUE(r.taken);
}

TEST_F(ExecutorTest, JalrComputesTargetFromRegister)
{
    state.writeReg(5, 0x3000);
    const ExecResult r = exec({Opcode::JALR, 1, 5, 0, 8});
    EXPECT_EQ(state.readReg(1), 0x1004u);
    EXPECT_EQ(state.pc(), 0x3008u);
    EXPECT_EQ(r.target, 0x3008u);
}

// ---- system ----

TEST_F(ExecutorTest, OutputOps)
{
    state.writeReg(1, 'H');
    exec({Opcode::PUTC, 0, 1, 0, 0});
    state.writeReg(1, Word(-42));
    exec({Opcode::PUTN, 0, 1, 0, 0});
    EXPECT_EQ(output, "H-42\n");
}

TEST_F(ExecutorTest, OutputIgnoredWithNullSink)
{
    state.writeReg(1, 'x');
    EXPECT_NO_THROW(exec({Opcode::PUTC, 0, 1, 0, 0}, nullptr));
}

TEST_F(ExecutorTest, HaltParksPc)
{
    const ExecResult r = exec({Opcode::HALT, 0, 0, 0, 0});
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(state.pc(), 0x1000u);
}

TEST_F(ExecutorTest, NopDoesNothingButAdvance)
{
    const ExecResult r = exec({Opcode::NOP, 0, 0, 0, 0});
    EXPECT_FALSE(r.wroteReg);
    EXPECT_FALSE(r.isMem);
    EXPECT_FALSE(r.isControl);
    EXPECT_EQ(state.pc(), 0x1004u);
}

} // namespace
} // namespace slip

#include <gtest/gtest.h>

#include <tuple>

#include "common/bitutils.hh"
#include "common/random.hh"
#include "func/arch_state.hh"
#include "func/executor.hh"
#include "isa/micro_op.hh"
#include "mem/memory.hh"

namespace slip
{
namespace
{

/** Predecode `inst` at the current pc and execute it. */
ExecResult
exec(ArchState &state, const StaticInst &inst)
{
    return executeMicro(state, predecode(inst, state.pc()), nullptr);
}

/** (store op, load op, bytes, signed) consistency sweep. */
struct MemOpCase
{
    Opcode store;
    Opcode load;
    unsigned bytes;
    bool loadSigned;
};

class MemOpSweep : public ::testing::TestWithParam<MemOpCase>
{
  protected:
    MemOpSweep()
        : port(mem), state(port)
    {
        state.setPc(0x1000);
    }

    Memory mem;
    DirectMemPort port;
    ArchState state;
};

TEST_P(MemOpSweep, StoreLoadRoundTripsWithCorrectExtension)
{
    const MemOpCase &c = GetParam();
    Rng rng(uint64_t(c.store) * 1000 + c.bytes);

    for (int i = 0; i < 200; ++i) {
        const Word value = rng.next();
        const Addr addr = 0x4000 + rng.below(256);
        state.writeReg(1, addr);
        state.writeReg(2, value);
        state.setPc(0x1000);
        exec(state, {c.store, 0, 1, 2, 0});

        state.setPc(0x1000);
        exec(state, {c.load, 3, 1, 0, 0});

        Word expect = bits(value, 0, c.bytes * 8);
        if (c.loadSigned)
            expect = Word(sext(expect, c.bytes * 8));
        EXPECT_EQ(state.readReg(3), expect)
            << opcodeName(c.store) << "/" << opcodeName(c.load)
            << " value " << std::hex << value;
    }
}

TEST_P(MemOpSweep, NarrowStoreLeavesNeighborsAlone)
{
    const MemOpCase &c = GetParam();
    mem.write(0x4000, 8, ~0ull);
    mem.write(0x4008, 8, ~0ull);
    state.writeReg(1, 0x4004);
    state.writeReg(2, 0);
    state.setPc(0x1000);
    exec(state, {c.store, 0, 1, 2, 0});
    // Bytes before the store are untouched.
    EXPECT_EQ(mem.read(0x4000, 4), 0xffffffffu);
    // Bytes after the stored field are untouched.
    EXPECT_EQ(mem.read(0x4004 + c.bytes, 1), 0xffu);
}

INSTANTIATE_TEST_SUITE_P(
    Widths, MemOpSweep,
    ::testing::Values(MemOpCase{Opcode::SB, Opcode::LB, 1, true},
                      MemOpCase{Opcode::SB, Opcode::LBU, 1, false},
                      MemOpCase{Opcode::SH, Opcode::LH, 2, true},
                      MemOpCase{Opcode::SH, Opcode::LHU, 2, false},
                      MemOpCase{Opcode::SW, Opcode::LW, 4, true},
                      MemOpCase{Opcode::SW, Opcode::LWU, 4, false},
                      MemOpCase{Opcode::SD, Opcode::LD, 8, false}),
    [](const ::testing::TestParamInfo<MemOpCase> &info) {
        return std::string(opcodeName(info.param.store)) + "_" +
               opcodeName(info.param.load);
    });

/**
 * Differential property: a random sequence of executor-level memory
 * ops equals a shadow model on plain Memory.
 */
TEST(ExecutorMemDifferential, RandomOpsMatchShadowMemory)
{
    Memory mem;
    DirectMemPort port(mem);
    ArchState state(port);
    Memory shadow;

    Rng rng(4242);
    const Opcode stores[] = {Opcode::SB, Opcode::SH, Opcode::SW,
                             Opcode::SD};
    const unsigned widths[] = {1, 2, 4, 8};

    for (int i = 0; i < 3000; ++i) {
        const unsigned pick = unsigned(rng.below(4));
        const Addr addr = 0x8000 + rng.below(512);
        const Word value = rng.next();
        state.writeReg(1, addr);
        state.writeReg(2, value);
        state.setPc(0x1000);
        exec(state, {stores[pick], 0, 1, 2, 0});
        shadow.write(addr, widths[pick], value);
    }
    for (Addr a = 0x8000; a < 0x8000 + 512 + 8; ++a)
        ASSERT_EQ(mem.read(a, 1), shadow.read(a, 1)) << "addr " << a;
}

} // namespace
} // namespace slip

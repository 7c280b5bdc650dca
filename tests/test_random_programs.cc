/**
 * Property-based differential testing: generate random (but
 * terminating) SSIR programs and check the architectural invariants
 * the models must uphold:
 *
 *   1. The SS timing model retires exactly the functional simulator's
 *      instruction stream (output and count).
 *   2. The slipstream processor's R-stream output equals the
 *      functional output — with the real IR-predictor AND with an
 *      adversarial one, proving recovery makes execution correct by
 *      construction.
 *
 * Programs are generated from a template grammar: a handful of loops
 * with random bodies of ALU ops, loads/stores into a scratch array,
 * and data-dependent conditionals, always ending in checksum output.
 * Loop bounds are fixed so every program terminates.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "assembler/assembler.hh"
#include "common/random.hh"
#include "func/func_sim.hh"
#include "slipstream/slipstream_processor.hh"
#include "uarch/ss_processor.hh"

namespace slip
{
namespace
{

/** Generate a complete random program. */
std::string
generateProgram(uint64_t seed)
{
    Rng rng(seed);
    std::ostringstream os;
    os << ".data\nscratch: .space 256\n.text\nmain:\n"
       << "    la   s9, scratch\n";

    // Seed the scratch registers with deterministic values.
    const int scratchRegs = 6;
    for (int i = 0; i < scratchRegs; ++i)
        os << "    li   t" << i << ", " << rng.below(1000) << "\n";

    const int loops = 1 + int(rng.below(3));
    for (int l = 0; l < loops; ++l) {
        const int iters = 20 + int(rng.below(120));
        const int bodyOps = 3 + int(rng.below(10));
        os << "    li   s" << l << ", " << iters << "\n"
           << "loop" << l << ":\n";
        int skipCounter = 0;
        for (int i = 0; i < bodyOps; ++i) {
            // Occasionally a data-dependent forward skip.
            if (rng.chance(0.2)) {
                const std::string label =
                    "sk" + std::to_string(l) + "_" +
                    std::to_string(skipCounter++);
                os << "    andi k2, t" << rng.below(scratchRegs)
                   << ", " << (1 + rng.below(3)) << "\n"
                   << "    beqz k2, " << label << "\n"
                   << "    addi t" << rng.below(scratchRegs) << ", t"
                   << rng.below(scratchRegs) << ", 1\n"
                   << label << ":\n";
            } else {
                switch (rng.below(9)) {
                  case 0:
                    os << "    add  t" << rng.below(scratchRegs)
                       << ", t" << rng.below(scratchRegs) << ", t"
                       << rng.below(scratchRegs) << "\n";
                    break;
                  case 1:
                    os << "    sub  t" << rng.below(scratchRegs)
                       << ", t" << rng.below(scratchRegs) << ", t"
                       << rng.below(scratchRegs) << "\n";
                    break;
                  case 2:
                    os << "    xor  t" << rng.below(scratchRegs)
                       << ", t" << rng.below(scratchRegs) << ", t"
                       << rng.below(scratchRegs) << "\n";
                    break;
                  case 3:
                    os << "    addi t" << rng.below(scratchRegs)
                       << ", t" << rng.below(scratchRegs) << ", "
                       << rng.range(-32, 32) << "\n";
                    break;
                  case 4:
                    os << "    mul  t" << rng.below(scratchRegs)
                       << ", t" << rng.below(scratchRegs) << ", t"
                       << rng.below(scratchRegs) << "\n";
                    break;
                  case 5:
                    os << "    andi k0, t" << rng.below(scratchRegs)
                       << ", 31\n"
                       << "    slli k0, k0, 3\n"
                       << "    add  k0, k0, s9\n"
                       << "    sd   t" << rng.below(scratchRegs)
                       << ", 0(k0)\n";
                    break;
                  case 6:
                    os << "    andi k0, t" << rng.below(scratchRegs)
                       << ", 31\n"
                       << "    slli k0, k0, 3\n"
                       << "    add  k0, k0, s9\n"
                       << "    ld   t" << rng.below(scratchRegs)
                       << ", 0(k0)\n";
                    break;
                  case 7: // dead-write fodder
                    os << "    addi k1, zero, " << rng.below(8)
                       << "\n";
                    break;
                  default: // same-value-write fodder
                    os << "    addi k3, zero, 7\n";
                    break;
                }
            }
        }
        os << "    addi s" << l << ", s" << l << ", -1\n"
           << "    bnez s" << l << ", loop" << l << "\n";
    }

    // Checksum everything observable.
    os << "    li   a0, 0\n";
    for (int i = 0; i < scratchRegs; ++i)
        os << "    add  a0, a0, t" << i << "\n";
    os << "    li   s0, 0\nck:\n"
       << "    slli t0, s0, 3\n"
       << "    add  t0, t0, s9\n"
       << "    ld   t1, 0(t0)\n"
       << "    add  a0, a0, t1\n"
       << "    addi s0, s0, 1\n"
       << "    li   t2, 32\n"
       << "    blt  s0, t2, ck\n"
       << "    putn a0\n"
       << "    halt\n";
    return os.str();
}

class RandomProgram : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomProgram, SSTimingModelMatchesFunctional)
{
    const Program p = assemble(generateProgram(GetParam()));
    FuncSim func(p);
    const FuncRunResult golden = func.run(50'000'000);
    ASSERT_TRUE(golden.halted);

    SSProcessor proc(p);
    const SSRunResult r = proc.run();
    EXPECT_EQ(r.output, golden.output);
    EXPECT_EQ(r.retired, golden.instCount);
}

TEST_P(RandomProgram, SlipstreamMatchesFunctional)
{
    const Program p = assemble(generateProgram(GetParam()));
    FuncSim func(p);
    const FuncRunResult golden = func.run(50'000'000);
    ASSERT_TRUE(golden.halted);

    SlipstreamProcessor proc(p);
    const SlipstreamRunResult r = proc.run();
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.output, golden.output);
}

/** Removes a deterministic pseudo-random ~25% of slots, always. */
class HostileIRPredictor : public IRPredictor
{
  public:
    HostileIRPredictor()
        : IRPredictor(IRPredictorParams{})
    {
    }

    std::optional<RemovalPlan>
    lookup(const PathHistory &, const TraceId &predicted) const override
    {
        RemovalPlan plan;
        uint64_t h = predicted.hash();
        for (unsigned i = 0; i < predicted.length; ++i) {
            h = mix64(h);
            if ((h & 3) == 0)
                plan.irVec |= uint64_t(1) << i;
        }
        if (!plan.irVec)
            return std::nullopt;
        for (unsigned i = 0; i < predicted.length; ++i)
            plan.setReason(i, reason::kBR);
        return plan;
    }
};

TEST_P(RandomProgram, SlipstreamSurvivesHostileRemoval)
{
    const Program p = assemble(generateProgram(GetParam()));
    FuncSim func(p);
    const FuncRunResult golden = func.run(50'000'000);
    ASSERT_TRUE(golden.halted);

    SlipstreamParams params;
    SlipstreamProcessor proc(p, params,
                             std::make_unique<HostileIRPredictor>());
    const SlipstreamRunResult r = proc.run();
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.output, golden.output);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgram,
                         ::testing::Range(uint64_t(1), uint64_t(13)));

} // namespace
} // namespace slip

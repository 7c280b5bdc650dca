/**
 * A-stream shortening policies: name/parse round trips, the strip
 * semantics every runahead-family policy relies on, per-policy
 * end-to-end correctness on a real program, and the reliability
 * oracle — the reliability-aware policy must never publish a delay-
 * buffer packet carrying data, even under a forced IR-misprediction.
 */

#include <gtest/gtest.h>

#include <string>

#include "assembler/assembler.hh"
#include "func/func_sim.hh"
#include "harness/schema.hh"
#include "slipstream/a_stream_policy.hh"
#include "slipstream/slipstream_processor.hh"

namespace slip
{
namespace
{

TEST(AStreamPolicy, NamesParseRoundTrip)
{
    EXPECT_STREQ(aStreamPolicyName(AStreamPolicyKind::IRRemoval),
                 "ir");
    EXPECT_STREQ(aStreamPolicyName(AStreamPolicyKind::Runahead),
                 "runahead");
    EXPECT_STREQ(
        aStreamPolicyName(AStreamPolicyKind::FilteredRunahead),
        "filtered");
    EXPECT_STREQ(
        aStreamPolicyName(AStreamPolicyKind::ReliabilityRunahead),
        "reliability");

    for (unsigned i = 0; i < kNumAStreamPolicies; ++i) {
        AStreamPolicyKind parsed;
        ASSERT_TRUE(enumFromName(
            aStreamPolicyName(AStreamPolicyKind(i)), parsed));
        EXPECT_EQ(parsed, AStreamPolicyKind(i));
    }
    AStreamPolicyKind dummy;
    EXPECT_FALSE(enumFromName("turbo", dummy));
    EXPECT_FALSE(enumFromName("", dummy));
    EXPECT_FALSE(enumFromName("IR", dummy));
}

/** A packet with `executed` value-carrying slots out of `slots`. */
Packet
packetOf(unsigned slots, unsigned executed)
{
    Packet p;
    p.num = 1;
    p.actualId = TraceId{0x1000, 0, 0, uint8_t(slots)};
    p.slots.resize(slots);
    for (unsigned i = 0; i < slots; ++i) {
        PacketSlot &slot = p.slots[i];
        slot.pc = 0x1000 + 4 * i;
        slot.si = StaticInst{Opcode::ADDI, RegIndex(5), RegIndex(6),
                             RegIndex(0), 1};
        if (i < executed) {
            slot.executedInA = true;
            slot.aExec.destValue = 0xdead0000 + i;
        }
        slot.pathTaken = (i % 2) == 0;
        slot.pathNextPc = slot.pc + 4;
    }
    p.executedCount = executed;
    return p;
}

TEST(AStreamPolicy, ReliabilityStripsValuesButKeepsPath)
{
    AStreamPolicyParams params;
    params.kind = AStreamPolicyKind::ReliabilityRunahead;
    auto policy = makeAStreamPolicy(params);

    Packet p = packetOf(6, 4);
    policy->onPacketComplete(p);

    EXPECT_EQ(p.executedCount, 0u);
    for (unsigned i = 0; i < p.slots.size(); ++i) {
        const PacketSlot &slot = p.slots[i];
        EXPECT_FALSE(slot.executedInA) << i;
        EXPECT_EQ(slot.aExec.destValue, 0u) << i;
        // Path info survives: direction-only validation needs it.
        EXPECT_EQ(slot.pathTaken, (i % 2) == 0) << i;
        EXPECT_EQ(slot.pathNextPc, slot.pc + 4) << i;
    }
    EXPECT_EQ(policy->stats().get("stripped_slots"), 4u);
    EXPECT_EQ(policy->stats().get("control_only_packets"), 1u);
    EXPECT_EQ(policy->stats().get("data_packets"), 0u);
}

TEST(AStreamPolicy, RunaheadStripsOnlyWhileInMode)
{
    AStreamPolicyParams params;
    params.kind = AStreamPolicyKind::Runahead;
    params.runaheadTraces = 2;
    auto policy = makeAStreamPolicy(params);

    // Out of mode: packets pass through untouched.
    Packet before = packetOf(4, 3);
    policy->onPacketComplete(before);
    EXPECT_EQ(before.executedCount, 3u);
    EXPECT_EQ(policy->stats().get("data_packets"), 1u);

    // A load whose line misses the (cold) tag array enters mode.
    const StaticInst load{Opcode::LD, RegIndex(5), RegIndex(6),
                          RegIndex(0), 0};
    ExecResult exec;
    exec.memAddr = 0x4000;
    policy->onSlotExecuted(load, exec);
    EXPECT_EQ(policy->stats().get("mode_entries"), 1u);

    // The next `runaheadTraces` packets forward control only...
    for (int i = 0; i < 2; ++i) {
        Packet in = packetOf(4, 3);
        policy->onPacketComplete(in);
        EXPECT_EQ(in.executedCount, 0u) << i;
    }
    EXPECT_EQ(policy->stats().get("mode_traces"), 2u);
    EXPECT_EQ(policy->stats().get("stripped_slots"), 6u);

    // ...then mode exits and values flow again.
    Packet after = packetOf(4, 3);
    policy->onPacketComplete(after);
    EXPECT_EQ(after.executedCount, 3u);

    // The same line hits now — no re-entry...
    policy->onSlotExecuted(load, exec);
    EXPECT_EQ(policy->stats().get("mode_entries"), 1u);

    // ...until a recovery resets the miss model with the rest of the
    // speculative context.
    policy->onRecovery();
    policy->onSlotExecuted(load, exec);
    EXPECT_EQ(policy->stats().get("mode_entries"), 2u);
}

TEST(AStreamPolicy, FilteredKeepsLoadSlicesInMode)
{
    AStreamPolicyParams params;
    params.kind = AStreamPolicyKind::FilteredRunahead;
    params.runaheadTraces = 1;
    auto policy = makeAStreamPolicy(params);

    const StaticInst trigger{Opcode::LD, RegIndex(5), RegIndex(6),
                             RegIndex(0), 0};
    ExecResult exec;
    exec.memAddr = 0x8000;
    policy->onSlotExecuted(trigger, exec);

    // Three executed slots: x7 = x8 + 1 feeds the load's address,
    // x9 = x9 * x9 feeds nothing the load needs, ld x10, 0(x7).
    Packet p;
    p.num = 2;
    p.slots.resize(3);
    p.slots[0].si = StaticInst{Opcode::ADDI, RegIndex(7), RegIndex(8),
                               RegIndex(0), 1};
    p.slots[1].si = StaticInst{Opcode::MUL, RegIndex(9), RegIndex(9),
                               RegIndex(9), 0};
    p.slots[2].si = StaticInst{Opcode::LD, RegIndex(10), RegIndex(7),
                               RegIndex(0), 0};
    for (PacketSlot &slot : p.slots) {
        slot.executedInA = true;
        slot.aExec.destValue = 1;
    }
    p.executedCount = 3;
    policy->onPacketComplete(p);

    EXPECT_TRUE(p.slots[0].executedInA);  // feeds the load address
    EXPECT_FALSE(p.slots[1].executedInA); // dead to every load
    EXPECT_TRUE(p.slots[2].executedInA);  // the load itself
    EXPECT_EQ(p.executedCount, 2u);
    EXPECT_EQ(policy->stats().get("stripped_slots"), 1u);
}

// ---------------------------------------------------------------------
// End-to-end: every policy yields architecturally correct output.
// ---------------------------------------------------------------------

const char *kProgram = R"(
.data
arr: .space 2048
.text
main:
    la   a0, arr
    li   s5, 0
again:
    li   s0, 0
fill:
    slli t0, s0, 3
    add  t0, t0, a0
    mul  t1, s0, s0
    sd   t1, 0(t0)
    addi t9, zero, 1     # removable bookkeeping
    addi s0, s0, 1
    li   t2, 256
    blt  s0, t2, fill
    li   s0, 0
    li   s1, 0
sum:
    slli t0, s0, 3
    add  t0, t0, a0
    ld   t1, 0(t0)
    add  s1, s1, t1
    addi s0, s0, 1
    li   t2, 256
    blt  s0, t2, sum
    addi s5, s5, 1
    li   t2, 4
    blt  s5, t2, again
    putn s1
    halt
)";

std::string
golden()
{
    Program p = assemble(kProgram);
    FuncSim sim(p);
    return sim.run().output;
}

TEST(AStreamPolicy, EveryPolicyProducesCorrectOutput)
{
    const std::string want = golden();
    for (unsigned i = 0; i < kNumAStreamPolicies; ++i) {
        const AStreamPolicyKind kind = AStreamPolicyKind(i);
        SCOPED_TRACE(aStreamPolicyName(kind));
        Program p = assemble(kProgram);
        SlipstreamParams params;
        params.aPolicy.kind = kind;
        SlipstreamProcessor proc(p, params);
        const SlipstreamRunResult r = proc.run();
        EXPECT_TRUE(r.halted);
        EXPECT_EQ(r.output, want);

        const uint64_t data =
            proc.aPolicy().stats().get("data_packets");
        const uint64_t stripped =
            proc.aPolicy().stats().get("stripped_slots");
        if (kind == AStreamPolicyKind::ReliabilityRunahead) {
            // The defining property: control only, always.
            EXPECT_EQ(data, 0u);
            EXPECT_GT(stripped, 0u);
        } else if (kind == AStreamPolicyKind::IRRemoval) {
            EXPECT_GT(data, 0u);
            EXPECT_EQ(stripped, 0u);
        } else {
            // The runahead variants strip in-mode only; the cold tag
            // array guarantees at least one miss -> one mode entry.
            EXPECT_GT(data, 0u);
            EXPECT_GT(proc.aPolicy().stats().get("mode_entries"), 0u);
            EXPECT_GT(stripped, 0u);
        }
    }
}

/**
 * The reliability oracle (the satellite's acceptance property): force
 * IR-mispredictions by corrupting predictor SRAM mid-run; recoveries
 * fire, and still not one delay-buffer packet with data is published.
 * A corrupted A-stream context cannot poison the delay buffer when no
 * speculative value ever rides it.
 */
TEST(AStreamPolicy, ReliabilityNeverPublishesDataUnderIRMisprediction)
{
    const std::string want = golden();
    for (unsigned bit : {0u, 3u, 8u, 20u, 40u}) {
        SCOPED_TRACE(bit);
        Program p = assemble(kProgram);
        SlipstreamParams params;
        params.aPolicy.kind = AStreamPolicyKind::ReliabilityRunahead;
        SlipstreamProcessor proc(p, params);
        proc.faultInjector().arm({FaultTarget::IRPredictor, 4000, bit});
        const SlipstreamRunResult r = proc.run();
        EXPECT_TRUE(r.halted);
        EXPECT_EQ(r.output, want);
        EXPECT_EQ(proc.aPolicy().stats().get("data_packets"), 0u);
        EXPECT_GT(proc.aPolicy().stats().get("control_only_packets"),
                  0u);
    }
}

} // namespace
} // namespace slip

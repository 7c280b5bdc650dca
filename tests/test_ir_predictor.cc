#include <gtest/gtest.h>

#include "slipstream/ir_predictor.hh"

namespace slip
{
namespace
{

TraceId
traceAt(Addr pc)
{
    return TraceId{pc, 0b1, 1, 8};
}

RemovalPlan
plan(uint64_t irVec)
{
    RemovalPlan p;
    p.irVec = irVec;
    for (unsigned i = 0; i < 8; ++i)
        p.setReason(i, reason::kBR);
    return p;
}

IRPredictorParams
lowThreshold(unsigned threshold = 3)
{
    IRPredictorParams p;
    p.confidenceThreshold = threshold;
    return p;
}

TEST(IRPredictor, NoRemovalBelowThreshold)
{
    IRPredictor pred(lowThreshold(3));
    PathHistory h;
    const TraceId t = traceAt(0x1000);
    pred.update(h, t, plan(0b0110));
    pred.update(h, t, plan(0b0110));
    pred.update(h, t, plan(0b0110));
    EXPECT_FALSE(pred.lookup(h, t).has_value());
    pred.update(h, t, plan(0b0110));
    auto got = pred.lookup(h, t);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->irVec, 0b0110u);
}

TEST(IRPredictor, ResettingCounterOnIrVecChange)
{
    IRPredictor pred(lowThreshold(2));
    PathHistory h;
    const TraceId t = traceAt(0x1000);
    for (int i = 0; i < 5; ++i)
        pred.update(h, t, plan(0b1));
    ASSERT_TRUE(pred.lookup(h, t).has_value());
    pred.update(h, t, plan(0b10)); // different ir-vec: reset
    EXPECT_FALSE(pred.lookup(h, t).has_value());
}

TEST(IRPredictor, UnstableNextTraceNeverConfident)
{
    // The same path history is followed alternately by two different
    // traces: the {trace-id, ir-vec} pair keeps changing, so the
    // entry never saturates — the paper's §2.1.3 instability effect.
    IRPredictor pred(lowThreshold(3));
    PathHistory h;
    const TraceId a = traceAt(0x1000);
    const TraceId b = traceAt(0x2000);
    for (int i = 0; i < 50; ++i) {
        pred.update(h, a, plan(0b1));
        pred.update(h, b, plan(0b1));
    }
    EXPECT_FALSE(pred.lookup(h, a).has_value());
    EXPECT_FALSE(pred.lookup(h, b).has_value());
}

TEST(IRPredictor, LookupRequiresMatchingTraceId)
{
    IRPredictor pred(lowThreshold(1));
    PathHistory h;
    const TraceId t = traceAt(0x1000);
    pred.update(h, t, plan(0b1));
    pred.update(h, t, plan(0b1));
    ASSERT_TRUE(pred.lookup(h, t).has_value());
    // Same history, different predicted trace: no plan.
    EXPECT_FALSE(pred.lookup(h, traceAt(0x2000)).has_value());
}

TEST(IRPredictor, EmptyIrVecYieldsNoPlan)
{
    IRPredictor pred(lowThreshold(1));
    PathHistory h;
    const TraceId t = traceAt(0x1000);
    for (int i = 0; i < 5; ++i)
        pred.update(h, t, plan(0));
    EXPECT_FALSE(pred.lookup(h, t).has_value());
}

TEST(IRPredictor, DisabledPredictorRemovesNothing)
{
    IRPredictorParams params = lowThreshold(1);
    params.enabled = false; // reliable (AR-SMT) mode
    IRPredictor pred(params);
    PathHistory h;
    const TraceId t = traceAt(0x1000);
    for (int i = 0; i < 5; ++i)
        pred.update(h, t, plan(0b1));
    EXPECT_FALSE(pred.lookup(h, t).has_value());
}

TEST(IRPredictor, ResetDropsAllConfidence)
{
    IRPredictor pred(lowThreshold(1));
    PathHistory h;
    const TraceId t = traceAt(0x1000);
    pred.update(h, t, plan(0b1));
    pred.update(h, t, plan(0b1));
    ASSERT_TRUE(pred.lookup(h, t).has_value());
    pred.reset();
    EXPECT_FALSE(pred.lookup(h, t).has_value());
}

TEST(IRPredictor, ResetEntryIsTargeted)
{
    IRPredictor pred(lowThreshold(1));
    PathHistory h1, h2;
    h2.push(traceAt(0x9000));
    const TraceId t1 = traceAt(0x1000);
    const TraceId t2 = traceAt(0x2000);
    for (int i = 0; i < 3; ++i) {
        pred.update(h1, t1, plan(0b1));
        pred.update(h2, t2, plan(0b10));
    }
    ASSERT_TRUE(pred.lookup(h1, t1).has_value());
    ASSERT_TRUE(pred.lookup(h2, t2).has_value());
    pred.resetEntry(h1, t1);
    EXPECT_FALSE(pred.lookup(h1, t1).has_value());
    EXPECT_TRUE(pred.lookup(h2, t2).has_value());
}

TEST(IRPredictor, ReasonsRideAlong)
{
    IRPredictor pred(lowThreshold(1));
    PathHistory h;
    const TraceId t = traceAt(0x1000);
    RemovalPlan p = plan(0b100);
    for (unsigned i = 0; i < 8; ++i)
        p.setReason(i, 0);
    p.setReason(2, reason::kSV);
    pred.update(h, t, p);
    pred.update(h, t, p);
    auto got = pred.lookup(h, t);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->reasonAt(2), reason::kSV);
    EXPECT_TRUE(got->removes(2));
    EXPECT_FALSE(got->removes(1));
    EXPECT_EQ(got->removedCount(), 1u);
}

TEST(RemovalPlan, ReasonBitPlanesRoundTrip)
{
    for (const unsigned slot : {0u, 31u, 63u}) {
        for (unsigned mask = 0; mask < kNumReasonMasks; ++mask) {
            RemovalPlan p;
            p.setReason(slot, 0xF);
            p.setReason(slot, static_cast<uint8_t>(mask)); // overwrites
            EXPECT_EQ(p.reasonAt(slot), mask) << "slot " << slot;
            for (const unsigned other : {0u, 1u, 30u, 32u, 62u, 63u}) {
                if (other != slot) {
                    EXPECT_EQ(p.reasonAt(other), 0) << other;
                }
            }
        }
    }
}

TEST(RemovalPlan, ReasonsPastThePlanReadZero)
{
    RemovalPlan p;
    for (unsigned i = 0; i < 64; ++i)
        p.setReason(i, reason::kProp | reason::kBR);
    EXPECT_EQ(p.reasonAt(63), uint8_t(reason::kProp | reason::kBR));
    EXPECT_EQ(p.reasonAt(64), 0);
    EXPECT_EQ(p.reasonAt(1000), 0);
}

TEST(ReasonName, PaperCategories)
{
    EXPECT_EQ(reasonName(reason::kBR), "BR");
    EXPECT_EQ(reasonName(reason::kWW), "WW");
    EXPECT_EQ(reasonName(reason::kSV), "SV");
    EXPECT_EQ(reasonName(reason::kProp | reason::kBR), "P:BR");
    EXPECT_EQ(reasonName(uint8_t(reason::kProp | reason::kSV |
                                 reason::kWW | reason::kBR)),
              "P:SV,WW,BR");
    EXPECT_EQ(reasonName(0), "none");
}

} // namespace
} // namespace slip

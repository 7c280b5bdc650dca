#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <map>
#include <utility>

#include "common/invariant.hh"
#include "common/random.hh"
#include "slipstream/operand_rename_table.hh"

namespace slip
{
namespace
{

OrtProducer
prod(uint64_t packet, uint8_t slot)
{
    return OrtProducer{packet, slot};
}

TEST(Ort, FreshWriteKillsNothing)
{
    OperandRenameTable ort;
    const OrtWriteResult w = ort.writeReg(5, 100, prod(1, 0));
    EXPECT_FALSE(w.nonModifying);
    EXPECT_FALSE(w.killedValid);
}

TEST(Ort, SameValueWriteIsNonModifying)
{
    OperandRenameTable ort;
    ort.writeReg(5, 100, prod(1, 0));
    const OrtWriteResult w = ort.writeReg(5, 100, prod(1, 3));
    EXPECT_TRUE(w.nonModifying);
    EXPECT_FALSE(w.killedValid);
    // The old producer stays live: a later different write kills the
    // ORIGINAL producer, not the non-modifying one.
    const OrtWriteResult w2 = ort.writeReg(5, 200, prod(1, 5));
    ASSERT_TRUE(w2.killedValid);
    EXPECT_EQ(w2.killed, prod(1, 0));
}

TEST(Ort, DifferentValueKillsAndReportsUnreferenced)
{
    OperandRenameTable ort;
    ort.writeReg(5, 100, prod(1, 0));
    const OrtWriteResult w = ort.writeReg(5, 200, prod(1, 4));
    ASSERT_TRUE(w.killedValid);
    EXPECT_EQ(w.killed, prod(1, 0));
    EXPECT_TRUE(w.killedUnreferenced); // never read
}

TEST(Ort, ReadSetsReferenceBit)
{
    OperandRenameTable ort;
    ort.writeReg(5, 100, prod(1, 0));
    const OrtProducer *p = ort.readReg(5);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, prod(1, 0));
    const OrtWriteResult w = ort.writeReg(5, 200, prod(1, 4));
    ASSERT_TRUE(w.killedValid);
    EXPECT_FALSE(w.killedUnreferenced);
}

TEST(Ort, ZeroRegisterIsInert)
{
    OperandRenameTable ort;
    EXPECT_EQ(ort.readReg(kZeroReg), nullptr);
    const OrtWriteResult w = ort.writeReg(kZeroReg, 5, prod(1, 0));
    EXPECT_FALSE(w.nonModifying);
    EXPECT_FALSE(w.killedValid);
    EXPECT_EQ(ort.readReg(kZeroReg), nullptr);
}

TEST(Ort, MemoryLocationsTrackedLikeRegisters)
{
    OperandRenameTable ort;
    ort.writeMem(0x2000, 8, 42, prod(1, 1));
    EXPECT_TRUE(ort.writeMem(0x2000, 8, 42, prod(1, 2)).nonModifying);
    const OrtProducer *p = ort.readMem(0x2000, 8);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, prod(1, 1));
    const OrtWriteResult w = ort.writeMem(0x2000, 8, 43, prod(2, 0));
    ASSERT_TRUE(w.killedValid);
    EXPECT_FALSE(w.killedUnreferenced);
}

TEST(Ort, DifferentSizesAreDistinctLocations)
{
    OperandRenameTable ort;
    ort.writeMem(0x2000, 8, 42, prod(1, 0));
    // A 4-byte write to the same address is a different tracked
    // location: no kill, no non-modifying detection.
    const OrtWriteResult w = ort.writeMem(0x2000, 4, 42, prod(1, 1));
    EXPECT_FALSE(w.nonModifying);
    EXPECT_FALSE(w.killedValid);
    EXPECT_EQ(ort.memEntryCount(), 2u);
}

TEST(Ort, InvalidateProducerKeepsValueForSvDetection)
{
    OperandRenameTable ort;
    ort.writeReg(5, 100, prod(1, 0));
    ort.invalidateProducer(1);
    // Producer gone: reads find no producer, overwrites kill nothing.
    EXPECT_EQ(ort.readReg(5), nullptr);
    // But the value survives: a same-value write is still detected.
    EXPECT_TRUE(ort.writeReg(5, 100, prod(2, 0)).nonModifying);
}

TEST(Ort, InvalidateProducerSkipsNewerProducers)
{
    OperandRenameTable ort;
    ort.writeReg(5, 100, prod(1, 0));
    ort.writeReg(5, 200, prod(2, 0));
    ort.invalidateProducer(1); // r5's producer is now packet 2
    const OrtProducer *p = ort.readReg(5);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->packetNum, 2u);
}

TEST(Ort, KillAfterInvalidationYieldsNoVictim)
{
    OperandRenameTable ort;
    ort.writeMem(0x100, 8, 1, prod(1, 0));
    ort.invalidateProducer(1);
    const OrtWriteResult w = ort.writeMem(0x100, 8, 2, prod(9, 0));
    EXPECT_FALSE(w.killedValid);
}

TEST(Ort, ResetClearsEverything)
{
    OperandRenameTable ort;
    ort.writeReg(5, 1, prod(1, 0));
    ort.writeMem(0x100, 8, 1, prod(1, 1));
    ort.reset();
    EXPECT_EQ(ort.readReg(5), nullptr);
    EXPECT_EQ(ort.readMem(0x100, 8), nullptr);
    EXPECT_EQ(ort.memEntryCount(), 0u);
    // Values did not survive: same-value write is not non-modifying.
    EXPECT_FALSE(ort.writeReg(5, 1, prod(2, 0)).nonModifying);
}

TEST(Ort, EvictionKeepsProducerOfKeyOverwrittenByLaterPacket)
{
    OperandRenameTable ort;
    ort.writeMem(0x100, 8, 1, prod(1, 0));
    ort.writeMem(0x100, 8, 2, prod(2, 3)); // packet 2 takes the key
    ort.invalidateProducer(1);
    const OrtProducer *p = ort.readMem(0x100, 8);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, prod(2, 3));
    ort.invalidateProducer(2);
    EXPECT_EQ(ort.readMem(0x100, 8), nullptr);
}

TEST(Ort, EvictionIgnoresNonModifyingWrites)
{
    OperandRenameTable ort;
    ort.writeMem(0x100, 8, 7, prod(1, 0));
    ASSERT_TRUE(ort.writeMem(0x100, 8, 7, prod(2, 0)).nonModifying);
    // Packet 2 never became the producer: evicting it leaves the
    // older producer in place.
    ort.invalidateProducer(2);
    const OrtProducer *p = ort.readMem(0x100, 8);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, prod(1, 0));
    ort.invalidateProducer(1);
    EXPECT_EQ(ort.readMem(0x100, 8), nullptr);
}

/**
 * The table's semantics written the obvious way: scope eviction scans
 * every entry. The real table must agree with it on every result.
 */
class ReferenceOrt
{
  public:
    const OrtProducer *
    readReg(RegIndex r)
    {
        return r == kZeroReg ? nullptr : read(regs[r]);
    }

    const OrtProducer *
    readMem(Addr addr, unsigned bytes)
    {
        auto it = mem.find({addr, bytes});
        return it == mem.end() ? nullptr : read(it->second);
    }

    OrtWriteResult
    writeReg(RegIndex r, Word value, const OrtProducer &producer)
    {
        if (r == kZeroReg)
            return {};
        return write(regs[r], value, producer);
    }

    OrtWriteResult
    writeMem(Addr addr, unsigned bytes, Word value,
             const OrtProducer &producer)
    {
        return write(mem[{addr, bytes}], value, producer);
    }

    void
    invalidateProducer(uint64_t packetNum)
    {
        for (Entry &e : regs)
            drop(e, packetNum);
        for (auto &[key, e] : mem)
            drop(e, packetNum);
    }

    void
    reset()
    {
        regs = {};
        mem.clear();
    }

    size_t memEntryCount() const { return mem.size(); }

  private:
    struct Entry
    {
        bool valid = false;
        bool producerValid = false;
        bool ref = false;
        Word value = 0;
        OrtProducer producer;
    };

    static const OrtProducer *
    read(Entry &e)
    {
        if (!e.valid)
            return nullptr;
        e.ref = true;
        return e.producerValid ? &e.producer : nullptr;
    }

    static OrtWriteResult
    write(Entry &e, Word value, const OrtProducer &producer)
    {
        OrtWriteResult result;
        if (e.valid && e.value == value) {
            result.nonModifying = true;
            return result;
        }
        if (e.valid && e.producerValid) {
            result.killedValid = true;
            result.killed = e.producer;
            result.killedUnreferenced = !e.ref;
        }
        e = Entry{true, true, false, value, producer};
        return result;
    }

    static void
    drop(Entry &e, uint64_t packetNum)
    {
        if (e.producerValid && e.producer.packetNum == packetNum)
            e.producerValid = false;
    }

    std::array<Entry, kNumRegs> regs{};
    std::map<std::pair<Addr, unsigned>, Entry> mem;
};

void
expectSameProducer(const OrtProducer *got, const OrtProducer *want,
                   uint64_t step)
{
    ASSERT_EQ(got == nullptr, want == nullptr) << "step " << step;
    if (got) {
        EXPECT_EQ(*got, *want) << "step " << step;
    }
}

void
expectSameWrite(const OrtWriteResult &got, const OrtWriteResult &want,
                uint64_t step)
{
    EXPECT_EQ(got.nonModifying, want.nonModifying) << "step " << step;
    EXPECT_EQ(got.killedValid, want.killedValid) << "step " << step;
    EXPECT_EQ(got.killed, want.killed) << "step " << step;
    EXPECT_EQ(got.killedUnreferenced, want.killedUnreferenced)
        << "step " << step;
}

// Seeded random traces through an 8-packet FIFO scope. Few registers,
// few addresses, four access sizes and four values keep same-value
// writes, same-address/different-size keys and cross-packet
// overwrites frequent. The full-scan checker inside
// invalidateProducer runs on every eviction.
TEST(Ort, MatchesFullScanReferenceOnRandomTraces)
{
    invariants::Scope checks(true);
    constexpr size_t kScope = 8;
    constexpr unsigned kSizes[] = {1, 2, 4, 8};

    for (uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        Rng rng(seed);
        OperandRenameTable ort;
        ReferenceOrt ref;
        std::deque<uint64_t> scope;
        uint64_t packet = 0;

        for (uint64_t step = 0; step < 4000; ++step) {
            if (rng.chance(0.002)) {
                ort.reset();
                ref.reset();
                scope.clear();
            }
            if (scope.empty() || rng.chance(0.08)) {
                scope.push_back(++packet);
                while (scope.size() > kScope) {
                    ort.invalidateProducer(scope.front());
                    ref.invalidateProducer(scope.front());
                    scope.pop_front();
                }
            }
            // Mostly the newest packet writes, as in the IR-detector;
            // sometimes an older in-scope one, so a packet may retake
            // a key a later packet overwrote.
            const uint64_t writer = rng.chance(0.9)
                ? scope.back()
                : scope[rng.below(scope.size())];
            const OrtProducer self =
                prod(writer, uint8_t(rng.below(32)));
            const RegIndex r = RegIndex(rng.below(6));
            const Addr addr = 0x1000 + 8 * rng.below(6);
            const unsigned bytes = kSizes[rng.below(4)];
            const Word value = rng.below(4);

            switch (rng.below(4)) {
              case 0:
                expectSameProducer(ort.readReg(r), ref.readReg(r), step);
                break;
              case 1:
                expectSameProducer(ort.readMem(addr, bytes),
                                   ref.readMem(addr, bytes), step);
                break;
              case 2:
                expectSameWrite(ort.writeReg(r, value, self),
                                ref.writeReg(r, value, self), step);
                break;
              default:
                expectSameWrite(ort.writeMem(addr, bytes, value, self),
                                ref.writeMem(addr, bytes, value, self),
                                step);
            }
            ASSERT_EQ(ort.memEntryCount(), ref.memEntryCount())
                << "step " << step;
            if (testing::Test::HasFailure())
                return;
        }
    }
}

} // namespace
} // namespace slip

/**
 * @file
 * The IR-detector's operand rename table (paper §2.1.2, Figure 3).
 *
 * Similar to a register renamer but tracking both registers and
 * memory locations. Each entry records the most recent producer of a
 * location, the produced value, and whether the value has been
 * referenced — the state needed to detect non-modifying writes,
 * unreferenced writes, and to kill values (observe overwrites) so the
 * R-DFG back-propagation knows when an instruction's consumer set is
 * complete.
 */

#ifndef SLIPSTREAM_SLIPSTREAM_OPERAND_RENAME_TABLE_HH
#define SLIPSTREAM_SLIPSTREAM_OPERAND_RENAME_TABLE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/ring.hh"
#include "common/types.hh"

namespace slip
{

/** Identifies one tracked dynamic instruction: packet + slot. */
struct OrtProducer
{
    uint64_t packetNum = 0;
    uint8_t slot = 0;

    bool operator==(const OrtProducer &other) const = default;
};

/** What happened when a write was checked against the table. */
struct OrtWriteResult
{
    /** The write produced the value already at the location. */
    bool nonModifying = false;

    /** A previous producer was killed (overwritten). */
    bool killedValid = false;
    OrtProducer killed;

    /** The killed producer's value was never referenced. */
    bool killedUnreferenced = false;
};

/** The table itself: 64 register entries + memory entries on demand. */
class OperandRenameTable
{
  public:
    OperandRenameTable();

    /**
     * Record a read of a register. Marks the entry referenced.
     * @return the current producer, or nullptr if untracked.
     */
    const OrtProducer *readReg(RegIndex r);

    /** Record a read of a memory location (loads). */
    const OrtProducer *readMem(Addr addr, unsigned bytes);

    /**
     * Check-and-update for a register write (paper's two rules):
     * a matching value is a non-modifying write (the old producer
     * stays live and the table is not updated); a differing value
     * kills the old producer, reporting whether it was unreferenced.
     */
    OrtWriteResult writeReg(RegIndex r, Word value,
                            const OrtProducer &producer);

    /** Check-and-update for a memory write (stores). */
    OrtWriteResult writeMem(Addr addr, unsigned bytes, Word value,
                            const OrtProducer &producer);

    /**
     * A packet is leaving the analysis scope: entries it produced can
     * no longer be killed or back-propagated into, so their producer
     * identity is dropped. The *values* stay valid — the table mirrors
     * architectural state, which scope eviction does not change — so
     * non-modifying-write detection stays stable across scope
     * boundaries (otherwise every scope-length-th instance of a
     * same-value write computes a different ir-vec and the resetting
     * confidence counter never saturates).
     *
     * Costs O(registers + memory keys the packet wrote), not
     * O(memory-table size): writeMem records, per packet, each key
     * whose producer it became.
     */
    void invalidateProducer(uint64_t packetNum);

    /** Drop all state (recovery / reuse). */
    void reset();

    size_t memEntryCount() const { return mem.size(); }

  private:
    struct Entry
    {
        bool valid = false;         // value field mirrors the location
        bool producerValid = false; // producer still inside the scope
        bool ref = false;
        Word value = 0;
        OrtProducer producer;
    };

    /** Memory-table size bound; value-only entries shed beyond it. */
    static constexpr size_t kMemEntryCap = 1 << 20;

    static uint64_t memKey(Addr addr, unsigned bytes);

    OrtWriteResult writeEntry(Entry &entry, Word value,
                              const OrtProducer &producer);

    std::array<Entry, kNumRegs> regs;
    std::unordered_map<uint64_t, Entry> mem;

    /**
     * Per in-scope packet: the memory keys it became the producer of
     * (a key may repeat, or have been overwritten by a later packet
     * since). Non-modifying writes leave the table untouched and are
     * not recorded.
     *
     * Kept in write order, one run per packet; packets are evicted
     * oldest first in the detector, so the front run is normally the
     * one invalidated. A run's key vector is reused by later packets.
     */
    struct WrittenKeys
    {
        uint64_t packetNum = 0;
        bool done = false; // its packet was invalidated
        std::vector<uint64_t> keys;
    };
    RecycleRing<WrittenKeys> writtenKeys;
};

} // namespace slip

#endif // SLIPSTREAM_SLIPSTREAM_OPERAND_RENAME_TABLE_HH

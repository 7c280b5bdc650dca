/**
 * @file
 * Shared vocabulary for instruction removal: reason categories (the
 * paper's Figure 8 breakdown) and the per-trace removal plan the
 * IR-predictor hands to the A-stream fetch unit.
 */

#ifndef SLIPSTREAM_SLIPSTREAM_REMOVAL_HH
#define SLIPSTREAM_SLIPSTREAM_REMOVAL_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "common/types.hh"
#include "uarch/trace.hh"

namespace slip
{

/**
 * Why an instruction was selected for removal. An instruction can
 * carry several reasons; back-propagated (P:) instructions inherit the
 * union of their consumers' reasons, as in the paper's accounting.
 */
namespace reason
{
constexpr uint8_t kBR = 1;   // branch instruction
constexpr uint8_t kWW = 2;   // unreferenced write (write-after-write)
constexpr uint8_t kSV = 4;   // non-modifying (same-value) write
constexpr uint8_t kProp = 8; // selected via R-DFG back-propagation
} // namespace reason

/** "BR", "SV", "P:SV,BR", ... matching the paper's Figure 8 legend. */
std::string reasonName(uint8_t mask);

/** Reason bits per slot: kProp|kSV|kWW|kBR. */
constexpr unsigned kNumReasonBits = 4;

/** Number of distinct reason masks. */
constexpr unsigned kNumReasonMasks = 1u << kNumReasonBits;

/**
 * Per-reason-mask removal tallies, indexed by the reason mask itself.
 * This is the hot-path representation: the per-retired-instruction
 * accounting is a single array increment; names are derived only when
 * results are assembled.
 */
using ReasonCounts = std::array<uint64_t, kNumReasonMasks>;

/** Expand tallies to the paper's named categories (zeros omitted). */
std::map<std::string, uint64_t> reasonCountsByName(const ReasonCounts &c);

/**
 * A removal plan for one trace: which slots the A-stream skips, and
 * why (the reasons ride along purely for statistics).
 *
 * Reasons are stored as bit planes, one 64-bit word per reason bit:
 * bit i of reasons[k] set => slot i carries reason bit k. A plan is
 * then a fixed 40 bytes, copied without allocating.
 */
struct RemovalPlan
{
    uint64_t irVec = 0; // bit i set => slot i removed
    std::array<uint64_t, kNumReasonBits> reasons{};

    bool
    removes(unsigned slot) const
    {
        return ((irVec >> slot) & 1) != 0;
    }

    /** Replace slot's reason mask (slot < 64). */
    void
    setReason(unsigned slot, uint8_t mask)
    {
        const uint64_t bit = uint64_t(1) << slot;
        for (unsigned k = 0; k < kNumReasonBits; ++k) {
            if ((mask >> k) & 1)
                reasons[k] |= bit;
            else
                reasons[k] &= ~bit;
        }
    }

    /** The slot's reason mask; 0 for slots past the 64-slot plan. */
    uint8_t
    reasonAt(unsigned slot) const
    {
        if (slot >= 64)
            return 0;
        uint8_t mask = 0;
        for (unsigned k = 0; k < kNumReasonBits; ++k)
            mask |= static_cast<uint8_t>(((reasons[k] >> slot) & 1) << k);
        return mask;
    }

    unsigned removedCount() const { return popCount(irVec); }
};

} // namespace slip

#endif // SLIPSTREAM_SLIPSTREAM_REMOVAL_HH

/**
 * @file
 * The reverse dataflow graph (R-DFG) the IR-detector builds over each
 * trace (paper §2.1.2). Nodes are the trace's instructions; edges run
 * from producers to consumers *within the same trace* (back-
 * propagation is confined to a trace, §2.1.3). When a triggering
 * condition selects an instruction for removal, selection status
 * back-propagates: a producer is selected once it has been killed,
 * every consumer is known, all consumers are selected, and all lie in
 * the same trace.
 *
 * Storage is fixed: at most kMaxSlots nodes (the 64-bit ir-vec width)
 * and kMaxProducers same-trace producers per node (two source
 * registers plus one load's memory producer), so building a graph
 * never allocates.
 */

#ifndef SLIPSTREAM_SLIPSTREAM_RDFG_HH
#define SLIPSTREAM_SLIPSTREAM_RDFG_HH

#include <array>
#include <cstdint>

#include "slipstream/removal.hh"

namespace slip
{

/** Back-propagation circuitry for one trace. */
class Rdfg
{
  public:
    /** Slots per graph: one per ir-vec bit. */
    static constexpr unsigned kMaxSlots = kMaxTraceSlots;

    /** Same-trace producers per slot (rs1, rs2, load memory, spare). */
    static constexpr unsigned kMaxProducers = 4;

    /** Begin a trace of `numSlots` (<= kMaxSlots) instructions. */
    explicit Rdfg(unsigned numSlots = 0);

    /**
     * Declare slot eligibility: instructions with irreversible side
     * effects (HALT, output, indirect jumps) are never removable.
     */
    void setRemovable(unsigned slot, bool removable);

    /**
     * Add a same-trace dataflow edge producer -> consumer. Repeated
     * edges are kept: an instruction reading the same register twice
     * counts as two consumers of its producer.
     */
    void addEdge(unsigned producer, unsigned consumer);

    /** The producer has a consumer beyond this trace: pins it. */
    void markExternalConsumer(unsigned producer);

    /**
     * Triggering condition hit (branch / unreferenced write /
     * non-modifying write): select the slot and back-propagate.
     */
    void select(unsigned slot, uint8_t reasons);

    /**
     * The slot's written value was overwritten — its consumer set is
     * now complete; removal may propagate to it.
     */
    void kill(unsigned slot);

    bool selected(unsigned slot) const { return nodes[slot].selected; }
    uint8_t reasons(unsigned slot) const { return nodes[slot].reasons; }

    unsigned numSlots() const { return count; }

    /** Removal bit vector over the slots (bit i = slot i selected). */
    uint64_t irVec() const;

    /** The computed plan: irVec() plus every slot's reason mask. */
    RemovalPlan plan() const;

  private:
    // No member initializers: the constructor initialises only the
    // graph's live nodes, not all kMaxSlots.
    struct Node
    {
        bool removable;
        bool selected;
        bool killed;
        bool externalConsumer;
        uint8_t reasons;
        uint8_t inheritedReasons; // union of selected consumers'
        uint8_t numProducers;
        std::array<uint8_t, kMaxProducers> producers; // edge order
        uint16_t consumers;
        uint16_t selectedConsumers;
    };

    void tryPropagate(unsigned slot);

    std::array<Node, kMaxSlots> nodes; // the first `count` are live
    unsigned count;
};

} // namespace slip

#endif // SLIPSTREAM_SLIPSTREAM_RDFG_HH

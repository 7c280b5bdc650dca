/**
 * @file
 * Pluggable A-stream shortening policies (the runahead lineage).
 *
 * The paper shortens the A-stream by exactly one mechanism: the
 * IR-detector/IR-predictor removal of predicted-ineffectual
 * instructions. The runahead family of proposals shortens a leading
 * context differently — by entering a speculative mode on a
 * long-latency event and discarding the speculative results on exit —
 * and the same CMP substrate can run any of them: the A-stream walks
 * traces, the delay buffer forwards control and (optionally) data
 * outcomes, the R-stream validates whatever arrives and executes the
 * rest natively.
 *
 * A policy controls three decision points of the A-stream walk:
 *
 *  - planTrace: which slots to skip outright (the removal plan);
 *  - onSlotExecuted: observe executed slots (miss modeling, mode
 *    entry);
 *  - onPacketComplete: what the completed packet *forwards* — a
 *    policy may strip value payloads from executed slots, demoting
 *    them to control-only entries the R-stream re-executes natively.
 *
 * Stripping happens after the A-core's fetch blocks are emitted, so
 * A-side timing is untouched; only the A->R communication changes.
 * Every packet is always published (the R-stream fetches exclusively
 * from the delay buffer), and path fields survive stripping so
 * direction-only branch validation still works. Stripped slots carry
 * no value payload: the R-stream executes them natively against the
 * authoritative context, so architectural output is correct under
 * every policy.
 *
 * Four policies (selected by $SLIPSTREAM_ASTREAM_POLICY / --policy,
 * strict mode-knob contract):
 *
 *  - ir: the paper's IR-removal, unchanged (byte-identical baseline).
 *  - runahead: classic runahead. A modeled long-latency load miss
 *    enters runahead mode for `runaheadTraces` traces; packets
 *    completed in-mode forward control only (checkpoint + discard:
 *    the speculative values are never architecturally consumed).
 *  - filtered: filtered runahead. In-mode packets keep loads, the
 *    packet-local backward slices feeding their addresses, and
 *    control; everything else is stripped.
 *  - reliability: reliability-aware runahead. IR removal stays
 *    active, but *every* packet forwards control only and a recovery
 *    suspends removal for `cooldownTraces` traces — a corrupted
 *    A-stream can never poison the delay buffer with wrong values.
 */

#ifndef SLIPSTREAM_SLIPSTREAM_A_STREAM_POLICY_HH
#define SLIPSTREAM_SLIPSTREAM_A_STREAM_POLICY_HH

#include <memory>
#include <optional>
#include <string>

#include "common/stats.hh"
#include "slipstream/delay_buffer.hh"
#include "slipstream/ir_predictor.hh"

namespace slip
{

/** Which A-stream shortening strategy drives the walk. */
enum class AStreamPolicyKind : uint8_t
{
    IRRemoval,           // the paper's IR-predictor removal (default)
    Runahead,            // enter on load miss, discard values on exit
    FilteredRunahead,    // in-mode, keep only load-leading slices
    ReliabilityRunahead, // removal + control-only forwarding always
};

inline constexpr unsigned kNumAStreamPolicies = 4;

/** "ir", "runahead", "filtered", "reliability" (report keys). */
const char *aStreamPolicyName(AStreamPolicyKind kind);

/**
 * $SLIPSTREAM_ASTREAM_POLICY: unset/empty means `fallback`; a listed
 * name wins; anything else throws FatalError listing the valid
 * choices (the strict mode-knob contract).
 */
AStreamPolicyKind aStreamPolicyFromEnv(
    AStreamPolicyKind fallback = AStreamPolicyKind::IRRemoval);

/** Policy selection plus tuning, carried inside SlipstreamParams. */
struct AStreamPolicyParams
{
    AStreamPolicyKind kind = AStreamPolicyKind::IRRemoval;

    /** Runahead: traces spent in-mode per triggering load miss. */
    unsigned runaheadTraces = 4;

    /** Runahead: direct-mapped 64B-line tag array size (miss model). */
    unsigned missLines = 64;

    /** Reliability: post-recovery traces with removal suspended. */
    unsigned cooldownTraces = 8;
};

/**
 * `base` with the environment applied: $SLIPSTREAM_ASTREAM_POLICY
 * (strict), $SLIPSTREAM_RUNAHEAD_TRACES (numeric knob, usual
 * warn-and-fall-back contract; zero is rejected — a zero-length
 * runahead mode never shortens anything).
 */
AStreamPolicyParams aStreamPolicyParamsFromEnv(
    AStreamPolicyParams base = {});

/**
 * One A-stream's shortening strategy. Owned by the processor, driven
 * by AStreamSource at the three decision points; all state is
 * per-instance, so trials stay deterministic across worker counts.
 */
class AStreamPolicy
{
  public:
    explicit AStreamPolicy(const AStreamPolicyParams &params);
    virtual ~AStreamPolicy() = default;

    /** Removal plan for the trace about to be walked (may be none). */
    virtual std::optional<RemovalPlan>
    planTrace(const IRPredictor &irPredictor, const PathHistory &history,
              const TraceId &predicted) = 0;

    /** An A-executed slot's outcome (miss modeling, mode entry). */
    virtual void onSlotExecuted(const StaticInst &, const ExecResult &)
    {
    }

    /**
     * The walk finished a packet (fetch blocks already emitted; the
     * A-core's timing is fixed). The policy may strip value payloads;
     * it must keep packet.executedCount equal to the surviving
     * executedInA slots.
     */
    virtual void onPacketComplete(Packet &packet);

    /** The A-stream was resynchronized from the R-stream. */
    virtual void onRecovery() {}

    const AStreamPolicyParams &params() const { return params_; }
    StatGroup &stats() { return stats_; }

  protected:
    /**
     * Demote one executed slot to a control-only entry: the path
     * fields survive (direction-only branch validation), the value
     * payload does not (the R-stream executes it natively).
     */
    void stripSlot(PacketSlot &slot);

    /** Strip every executed slot of `packet` (control-only packet). */
    void stripAll(Packet &packet);

    /** Recount packet.executedCount after selective stripping. */
    static void recount(Packet &packet);

    AStreamPolicyParams params_;
    StatGroup stats_;
    StatGroup::Handle statModeEntries{stats_.handle("mode_entries")};
    StatGroup::Handle statModeTraces{stats_.handle("mode_traces")};
    StatGroup::Handle statStrippedSlots{
        stats_.handle("stripped_slots")};
    StatGroup::Handle statDataPackets{stats_.handle("data_packets")};
    StatGroup::Handle statControlOnlyPackets{
        stats_.handle("control_only_packets")};
};

/** Construct the policy `params.kind` names. */
std::unique_ptr<AStreamPolicy>
makeAStreamPolicy(const AStreamPolicyParams &params = {});

} // namespace slip

#endif // SLIPSTREAM_SLIPSTREAM_A_STREAM_POLICY_HH

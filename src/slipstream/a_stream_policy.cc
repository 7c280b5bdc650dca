#include "slipstream/a_stream_policy.hh"

#include "common/env.hh"
#include "common/logging.hh"

namespace slip
{

namespace
{

constexpr const char *kPolicyNames[kNumAStreamPolicies] = {
    "ir",
    "runahead",
    "filtered",
    "reliability",
};

} // namespace

const char *
aStreamPolicyName(AStreamPolicyKind kind)
{
    const auto i = unsigned(kind);
    return i < kNumAStreamPolicies ? kPolicyNames[i] : "?";
}

AStreamPolicyKind
aStreamPolicyFromEnv(AStreamPolicyKind fallback)
{
    return AStreamPolicyKind(envChoice(
        "SLIPSTREAM_ASTREAM_POLICY",
        {"ir", "runahead", "filtered", "reliability"},
        size_t(fallback)));
}

AStreamPolicyParams
aStreamPolicyParamsFromEnv(AStreamPolicyParams base)
{
    AStreamPolicyParams p = base;
    p.kind = aStreamPolicyFromEnv(base.kind);
    const uint64_t traces =
        envU64("SLIPSTREAM_RUNAHEAD_TRACES", base.runaheadTraces);
    if (traces == 0) {
        SLIP_WARN("ignoring SLIPSTREAM_RUNAHEAD_TRACES=0 (a "
                  "zero-length runahead mode never shortens "
                  "anything); using ",
                  base.runaheadTraces ? base.runaheadTraces : 4);
        p.runaheadTraces =
            base.runaheadTraces ? base.runaheadTraces : 4;
    } else {
        p.runaheadTraces = unsigned(traces);
    }
    return p;
}

AStreamPolicy::AStreamPolicy(const AStreamPolicyParams &params)
    : params_(params), stats_("a_policy")
{
}

void
AStreamPolicy::onPacketComplete(Packet &packet)
{
    if (packet.executedCount > 0)
        ++statDataPackets;
    else
        ++statControlOnlyPackets;
}

void
AStreamPolicy::stripSlot(PacketSlot &slot)
{
    // Demotion only touches the communicated payload: the A-core's
    // fetch blocks are already emitted, and pathTaken/pathNextPc
    // survive for direction-only validation.
    slot.executedInA = false;
    slot.aExec = ExecResult{};
    ++statStrippedSlots;
}

void
AStreamPolicy::stripAll(Packet &packet)
{
    for (PacketSlot &slot : packet.slots) {
        if (slot.executedInA)
            stripSlot(slot);
    }
    packet.executedCount = 0;
}

void
AStreamPolicy::recount(Packet &packet)
{
    unsigned executed = 0;
    for (const PacketSlot &slot : packet.slots)
        executed += slot.executedInA ? 1 : 0;
    packet.executedCount = executed;
}

namespace
{

/** The paper's mechanism, verbatim: defer to the IR-predictor. */
class IRRemovalPolicy : public AStreamPolicy
{
  public:
    using AStreamPolicy::AStreamPolicy;

    std::optional<RemovalPlan>
    planTrace(const IRPredictor &irPredictor, const PathHistory &history,
              const TraceId &predicted) override
    {
        return irPredictor.lookup(history, predicted);
    }
};

/**
 * Mode machinery shared by the runahead variants: a direct-mapped
 * 64B-line tag array models the L2; an executed load that misses it
 * enters runahead mode for `runaheadTraces` traces. Recovery is the
 * checkpoint-restore: mode state and the miss model reset with the
 * rest of the speculative context.
 */
class RunaheadBase : public AStreamPolicy
{
  public:
    explicit RunaheadBase(const AStreamPolicyParams &params)
        : AStreamPolicy(params),
          tags(params.missLines ? params.missLines : 1, ~uint64_t(0))
    {
    }

    std::optional<RemovalPlan>
    planTrace(const IRPredictor &, const PathHistory &,
              const TraceId &) override
    {
        // Runahead never removes: the A-stream executes everything
        // (that is what runs ahead); shortening happens on the
        // communication side, by discarding speculative results.
        return std::nullopt;
    }

    void
    onSlotExecuted(const StaticInst &si, const ExecResult &exec) override
    {
        if (!si.isLoad())
            return;
        const uint64_t line = exec.memAddr >> 6;
        uint64_t &tag = tags[line % tags.size()];
        if (tag == line)
            return;
        tag = line;
        if (modeTracesLeft == 0)
            ++statModeEntries;
        modeTracesLeft = params_.runaheadTraces;
    }

    void
    onRecovery() override
    {
        modeTracesLeft = 0;
        std::fill(tags.begin(), tags.end(), ~uint64_t(0));
    }

  protected:
    bool
    consumeModeTrace()
    {
        if (modeTracesLeft == 0)
            return false;
        --modeTracesLeft;
        ++statModeTraces;
        return true;
    }

    unsigned modeTracesLeft = 0;
    std::vector<uint64_t> tags;
};

/** Classic runahead: in-mode packets forward control only. */
class RunaheadPolicy : public RunaheadBase
{
  public:
    using RunaheadBase::RunaheadBase;

    void
    onPacketComplete(Packet &packet) override
    {
        if (consumeModeTrace())
            stripAll(packet);
        AStreamPolicy::onPacketComplete(packet);
    }
};

/**
 * Filtered runahead: in-mode packets keep loads and the packet-local
 * backward slices feeding their addresses; every other speculative
 * result is dropped.
 */
class FilteredRunaheadPolicy : public RunaheadBase
{
  public:
    using RunaheadBase::RunaheadBase;

    void
    onPacketComplete(Packet &packet) override
    {
        if (consumeModeTrace())
            filterToLoadSlices(packet);
        AStreamPolicy::onPacketComplete(packet);
    }

  private:
    void
    filterToLoadSlices(Packet &packet)
    {
        // One backward pass: a slot survives if it is a load or if a
        // surviving slot consumes its destination register. Slices
        // are packet-local by construction (cross-trace producers are
        // the R-stream's problem either way).
        uint64_t needed = 0;
        for (size_t i = packet.slots.size(); i-- > 0;) {
            PacketSlot &slot = packet.slots[i];
            if (!slot.executedInA)
                continue;
            const RegIndex dst = slot.si.destReg();
            const bool feeds =
                dst != kNoReg && dst != kZeroReg &&
                ((needed >> (dst % 64)) & 1) != 0;
            if (slot.si.isLoad() || feeds) {
                if (dst != kNoReg)
                    needed &= ~(uint64_t(1) << (dst % 64));
                RegIndex srcs[2];
                slot.si.srcRegs(srcs);
                for (RegIndex s : srcs) {
                    if (s != kNoReg && s != kZeroReg)
                        needed |= uint64_t(1) << (s % 64);
                }
            } else {
                stripSlot(slot);
            }
        }
        recount(packet);
    }
};

/**
 * Reliability-aware runahead: keep the paper's removal (the speedup
 * mechanism) but forward control only, always — a corrupted A-stream
 * context can never plant wrong values in the delay buffer for the
 * R-stream to consume as predictions. A recovery additionally
 * suspends removal for `cooldownTraces` traces so a poisoned
 * IR-predictor entry cannot immediately re-shorten the restart path.
 */
class ReliabilityRunaheadPolicy : public AStreamPolicy
{
  public:
    using AStreamPolicy::AStreamPolicy;

    std::optional<RemovalPlan>
    planTrace(const IRPredictor &irPredictor, const PathHistory &history,
              const TraceId &predicted) override
    {
        if (cooldownLeft > 0) {
            --cooldownLeft;
            ++statModeTraces;
            return std::nullopt;
        }
        return irPredictor.lookup(history, predicted);
    }

    void
    onPacketComplete(Packet &packet) override
    {
        stripAll(packet);
        AStreamPolicy::onPacketComplete(packet);
    }

    void
    onRecovery() override
    {
        if (cooldownLeft == 0)
            ++statModeEntries;
        cooldownLeft = params_.cooldownTraces;
    }

  private:
    unsigned cooldownLeft = 0;
};

} // namespace

std::unique_ptr<AStreamPolicy>
makeAStreamPolicy(const AStreamPolicyParams &params)
{
    switch (params.kind) {
      case AStreamPolicyKind::Runahead:
        return std::make_unique<RunaheadPolicy>(params);
      case AStreamPolicyKind::FilteredRunahead:
        return std::make_unique<FilteredRunaheadPolicy>(params);
      case AStreamPolicyKind::ReliabilityRunahead:
        return std::make_unique<ReliabilityRunaheadPolicy>(params);
      case AStreamPolicyKind::IRRemoval:
        break;
    }
    return std::make_unique<IRRemovalPolicy>(params);
}

} // namespace slip

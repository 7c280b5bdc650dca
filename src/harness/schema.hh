/**
 * @file
 * One field list per serialized struct, and the adapters that walk it.
 *
 * A struct that crosses a process, file or cache boundary names each
 * field once, as (json name, member), in wire order:
 *
 *     template <Is<FaultPlan> S, class V>
 *     void
 *     fields(S &p, V &&v)
 *     {
 *         v("target", p.target);
 *         ...
 *     }
 *
 * `S` is the struct or its const view, so one list serves writers and
 * readers. The adapters: schema::encode / schema::decode (the wire
 * payload; every enum is range-checked on the way in), keyOf over
 * encoded bytes (the trial key), and JsonWriter / JsonReader (one
 * flat JSONL object; nested structs as dotted names, enums by name,
 * u64s exact). A new member is one new line in its list.
 */

#ifndef SLIPSTREAM_HARNESS_SCHEMA_HH
#define SLIPSTREAM_HARNESS_SCHEMA_HH

#include <charconv>
#include <concepts>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>

#include "common/crash_report.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "harness/experiment.hh"
#include "harness/sim_runner.hh"
#include "harness/wire.hh"
#include "slipstream/slipstream_processor.hh"

namespace slip
{

/** Constrains a field list to its struct, const or not. */
template <class S, class T>
concept Is = std::same_as<std::remove_const_t<S>, T>;

/** An enum's value count (decode range check) and names (JSONL). */
template <class E>
struct EnumInfo
{
    unsigned count;
    const char *(*name)(E);
};

/** Specialized for each serialized enum; a missing one fails to link. */
template <class E>
extern const EnumInfo<E> kEnumInfo;

template <>
inline constexpr EnumInfo<FaultTarget> kEnumInfo<FaultTarget>{
    kNumFaultTargets, faultTargetName};
template <>
inline constexpr EnumInfo<DetectBackendKind> kEnumInfo<DetectBackendKind>{
    kNumDetectBackends, detectBackendName};
template <>
inline constexpr EnumInfo<AStreamPolicyKind> kEnumInfo<AStreamPolicyKind>{
    kNumAStreamPolicies, aStreamPolicyName};
template <>
inline constexpr EnumInfo<JobOutcome::Status>
    kEnumInfo<JobOutcome::Status>{JobOutcome::kNumStatuses, jobStatusName};
template <>
inline constexpr EnumInfo<ErrorKind> kEnumInfo<ErrorKind>{kNumErrorKinds,
                                                          errorKindName};
template <>
inline constexpr EnumInfo<TrialPhase> kEnumInfo<TrialPhase>{
    kNumTrialPhases, trialPhaseName};
template <>
inline constexpr EnumInfo<WorkloadSize> kEnumInfo<WorkloadSize>{
    kNumWorkloadSizes, sizeName};
template <>
inline constexpr EnumInfo<IsolationMode> kEnumInfo<IsolationMode>{
    kNumIsolationModes, isolationModeName};

/** The value `text` names (case-sensitive); false for no value. */
template <class E>
bool
enumFromName(const std::string &text, E &out)
{
    for (unsigned i = 0; i < kEnumInfo<E>.count; ++i) {
        if (text == kEnumInfo<E>.name(E(i))) {
            out = E(i);
            return true;
        }
    }
    return false;
}

// ---------------------------------------------------------------------
// Field lists.
// ---------------------------------------------------------------------

template <Is<FaultPlan> S, class V>
void
fields(S &p, V &&v)
{
    v("target", p.target);
    v("dyn_index", p.dynIndex);
    v("bit", p.bit);
    v("reg", p.reg);
}

template <Is<FaultRecord> S, class V>
void
fields(S &r, V &&v)
{
    v("plan", r.plan);
    v("fired", r.fired);
    v("injected", r.injected);
    v("target_was_redundant", r.targetWasRedundant);
    v("detected", r.detected);
    v("pc", r.pc);
    v("inject_cycle", r.injectCycle);
    v("detect_cycle", r.detectCycle);
}

template <Is<FaultOutcome> S, class V>
void
fields(S &o, V &&v)
{
    v("injected", o.injected);
    v("target_was_redundant", o.targetWasRedundant);
    v("detected", o.detected);
    v("pc", o.pc);
    v("planned", o.planned);
    v("num_injected", o.numInjected);
    v("num_detected", o.numDetected);
    v("records", o.records);
}

template <Is<RunMetrics> S, class V>
void
fields(S &m, V &&v)
{
    v("model", m.model);
    v("cycles", m.cycles);
    v("retired", m.retired);
    v("ipc", m.ipc);
    v("branch_misp_per_1000", m.branchMispPer1000);
    v("output_correct", m.outputCorrect);
    v("output_bytes", m.outputBytes);
    v("removed_fraction", m.removedFraction);
    v("removed_by_reason", m.removedByReason);
    v("removed_by_reason_mask", m.removedByReasonMask);
    v("ir_misp_per_1000", m.irMispPer1000);
    v("avg_ir_penalty", m.avgIRPenalty);
    v("recoveries", m.recoveries);
    v("cancelled", m.cancelled);
    v("hung", m.hung);
    v("watchdog_trips", m.watchdogTrips);
    v("degraded", m.degraded);
    v("degraded_at_cycle", m.degradedAtCycle);
    v("r_only_retired", m.rOnlyRetired);
    v("detect_backend", m.detectBackend);
    v("detect_checked", m.detectChecked);
    v("detect_mismatches", m.detectMismatches);
    v("detect_external", m.detectExternal);
    v("detect_replays", m.detectReplays);
    v("detect_replayed_insts", m.detectReplayedInsts);
    v("detect_overhead_cycles", m.detectOverheadCycles);
    v("fault_outcome", m.faultOutcome);
}

/**
 * A JobOutcome minus what cannot cross a process boundary: the
 * exception_ptr stays behind (kind + message travel instead). The
 * crash triage is filled by the supervisor, not the worker, but is
 * listed so the struct round-trips whole.
 */
template <Is<JobOutcome> S, class V>
void
fields(S &o, V &&v)
{
    v("status", o.status);
    v("metrics", o.metrics);
    v("error_kind", o.errorKind);
    v("error_message", o.errorMessage);
    v("term_signal", o.termSignal);
    v("term_exit_code", o.termExitCode);
    v("crash_addr", o.crashAddr);
    v("crash_phase", o.crashPhase);
    v("poisoned", o.poisoned);
    v("attempts", o.attempts);
}

template <Is<CacheParams> S, class V>
void
fields(S &c, V &&v)
{
    v("name", c.name);
    v("size_bytes", c.sizeBytes);
    v("assoc", c.assoc);
    v("line_bytes", c.lineBytes);
    v("hit_latency", c.hitLatency);
    v("miss_penalty", c.missPenalty);
}

template <Is<CoreParams> S, class V>
void
fields(S &c, V &&v)
{
    v("name", c.name);
    v("fetch_width", c.fetchWidth);
    v("dispatch_width", c.dispatchWidth);
    v("issue_width", c.issueWidth);
    v("retire_width", c.retireWidth);
    v("rob_size", c.robSize);
    v("fetch_to_dispatch", c.fetchToDispatch);
    v("redirect_penalty", c.redirectPenalty);
    v("fetch_buffer_cap", c.fetchBufferCap);
    v("int_mult_lat", c.intMultLat);
    v("int_div_lat", c.intDivLat);
    v("icache", c.icache);
    v("dcache", c.dcache);
}

template <Is<TracePredParams> S, class V>
void
fields(S &p, V &&v)
{
    v("correlated_bits", p.correlatedBits);
    v("simple_bits", p.simpleBits);
}

template <Is<TracePolicy> S, class V>
void
fields(S &p, V &&v)
{
    v("max_len", p.maxLen);
    v("end_at_backward_taken", p.endAtBackwardTaken);
}

template <Is<IRPredictorParams> S, class V>
void
fields(S &p, V &&v)
{
    v("table_bits", p.tableBits);
    v("confidence_threshold", p.confidenceThreshold);
    v("skip_run_length", p.skipRunLength);
    v("enabled", p.enabled);
    v("key_by_trace_id", p.keyByTraceId);
}

template <Is<IRDetectorParams> S, class V>
void
fields(S &p, V &&v)
{
    v("scope_traces", p.scopeTraces);
    v("remove_branches", p.removeBranches);
    v("remove_writes", p.removeWrites);
}

template <Is<DelayBufferParams> S, class V>
void
fields(S &p, V &&v)
{
    v("control_capacity", p.controlCapacity);
    v("data_capacity", p.dataCapacity);
}

template <Is<RecoveryParams> S, class V>
void
fields(S &p, V &&v)
{
    v("startup_cycles", p.startupCycles);
    v("reg_restores_per_cycle", p.regRestoresPerCycle);
    v("mem_restores_per_cycle", p.memRestoresPerCycle);
}

template <Is<WatchdogParams> S, class V>
void
fields(S &p, V &&v)
{
    v("stall_cycles", p.stallCycles);
    v("max_trips", p.maxTrips);
}

template <Is<DegradeParams> S, class V>
void
fields(S &p, V &&v)
{
    v("enabled", p.enabled);
    v("window_cycles", p.windowCycles);
    v("recovery_threshold", p.recoveryThreshold);
    v("force_at_cycle", p.forceAtCycle);
}

template <Is<DetectParams> S, class V>
void
fields(S &p, V &&v)
{
    v("kind", p.kind);
    v("replay_window", p.replayWindow);
    v("replay_width", p.replayWidth);
    v("checker_bandwidth", p.checkerBandwidth);
    v("checker_queue", p.checkerQueue);
}

template <Is<AStreamPolicyParams> S, class V>
void
fields(S &p, V &&v)
{
    v("kind", p.kind);
    v("runahead_traces", p.runaheadTraces);
    v("miss_lines", p.missLines);
    v("cooldown_traces", p.cooldownTraces);
}

template <Is<SlipstreamParams> S, class V>
void
fields(S &p, V &&v)
{
    v("a_core", p.aCore);
    v("r_core", p.rCore);
    v("trace_pred", p.tracePred);
    v("trace_policy", p.tracePolicy);
    v("ir_pred", p.irPred);
    v("detector", p.detector);
    v("delay_buffer", p.delayBuffer);
    v("recovery", p.recovery);
    v("watchdog", p.watchdog);
    v("degrade", p.degrade);
    v("detect", p.detect);
    v("a_policy", p.aPolicy);
    v("reset_confidence_on_recovery", p.resetConfidenceOnRecovery);
}

namespace schema
{

/** A visitor that does nothing: probes whether T has a field list. */
struct NoVisit
{
    template <class M>
    void operator()(const char *, M &) const {}
    bool optionalTail(bool) const { return false; }
};

template <class T>
concept Described = requires(T &t) { fields(t, NoVisit{}); };

template <class T>
concept Map = requires { typename T::mapped_type; };

template <class T>
concept Sequence = !std::same_as<T, std::string> && requires(T &t) {
    t.begin();
    t.size();
};

template <class>
inline constexpr bool kNoForm = false;

/**
 * Append `v`'s wire form: little-endian integers of their own width,
 * enums and bools as one byte, bit-pattern doubles, length-prefixed
 * strings, u32-counted containers, nested structs inline.
 */
template <class T>
void
encode(wire::Encoder &enc, const T &v)
{
    if constexpr (Described<T>) {
        fields(v, [&](const char *, const auto &m) { encode(enc, m); });
    } else if constexpr (std::is_enum_v<T>) {
        enc.putU8(uint8_t(v));
    } else if constexpr (std::is_integral_v<T>) {
        enc.putInt(v);
    } else if constexpr (std::is_same_v<T, double>) {
        enc.putDouble(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
        enc.putString(v);
    } else if constexpr (Sequence<T>) {
        enc.putU32(uint32_t(v.size()));
        for (const auto &e : v) {
            if constexpr (Map<T>) {
                encode(enc, e.first);
                encode(enc, e.second);
            } else {
                encode(enc, e);
            }
        }
    } else {
        static_assert(kNoForm<T>, "type has no wire form");
    }
}

/** `v`'s whole wire payload. */
template <class T>
std::string
encode(const T &v)
{
    wire::Encoder enc;
    encode(enc, v);
    return enc.bytes();
}

/**
 * Read `v` back. Truncation, an enum value at or past its count, and
 * a fixed-size array of another arity are fatal (FatalError), naming
 * the field.
 */
template <class T>
void
decode(wire::Decoder &dec, T &v, const char *name = "payload")
{
    if constexpr (Described<T>) {
        fields(v, [&](const char *f, auto &m) { decode(dec, m, f); });
    } else if constexpr (std::is_enum_v<T>) {
        const unsigned raw = dec.getU8();
        if (raw >= kEnumInfo<T>.count)
            SLIP_FATAL("wire: field '", name, "' holds ", raw, ", past the ",
                       kEnumInfo<T>.count, " values of its enum");
        v = T(raw);
    } else if constexpr (std::is_integral_v<T>) {
        v = dec.getInt<T>();
    } else if constexpr (std::is_same_v<T, double>) {
        v = dec.getDouble();
    } else if constexpr (std::is_same_v<T, std::string>) {
        v = dec.getString();
    } else if constexpr (Map<T>) {
        const uint32_t n = dec.getU32();
        v.clear();
        for (uint32_t i = 0; i < n; ++i) {
            std::pair<typename T::key_type, typename T::mapped_type> e;
            decode(dec, e.first, name);
            decode(dec, e.second, name);
            v.insert(std::move(e));
        }
    } else if constexpr (requires { v.emplace_back(); }) {
        // No reserve: the count is outside input; each element must
        // decode before the next is made.
        const uint32_t n = dec.getU32();
        v.clear();
        for (uint32_t i = 0; i < n; ++i)
            decode(dec, v.emplace_back(), name);
    } else if constexpr (Sequence<T>) {
        const uint32_t n = dec.getU32();
        if (n != v.size())
            SLIP_FATAL("wire: field '", name, "' has ", n,
                       " entries, expected ", v.size(),
                       " — mixed-version peer?");
        for (auto &e : v)
            decode(dec, e, name);
    } else {
        static_assert(kNoForm<T>, "type has no wire form");
    }
}

/** A whole payload as T; trailing bytes are fatal too. */
template <class T>
T
decode(const std::string &bytes)
{
    wire::Decoder dec(bytes);
    T v{};
    decode(dec, v);
    if (!dec.atEnd())
        SLIP_FATAL("wire: trailing bytes after a decoded payload");
    return v;
}

/**
 * Builds one flat JSON object from field lists: `w("name", value)`
 * appends a pair, a nested struct appends its fields under
 * "name.field".
 */
class JsonWriter
{
  public:
    template <class T>
    void
    operator()(const char *name, const T &v)
    {
        if constexpr (Described<T>) {
            const size_t mark = prefix_.size();
            prefix_ += name;
            prefix_ += '.';
            fields(v, *this);
            prefix_.resize(mark);
        } else {
            out_ += out_.empty() ? "{\"" : ",\"";
            out_ += prefix_ + name + "\":";
            value(v);
        }
    }

    /** An optional trailing group: written only when present. */
    bool optionalTail(bool present) const { return present; }

    /** The object, closed. */
    std::string line() const { return (out_.empty() ? "{" : out_) + "}"; }

  private:
    void value(const std::string &s);
    void value(const TrialKey &k) { value(k.hex()); }
    /** "target=bucket:count,...;target2=..." (non-zero buckets). */
    void value(const std::map<std::string, Histogram> &h);

    template <class T>
    void
    value(const T &v)
    {
        if constexpr (std::is_same_v<T, bool>) {
            out_ += v ? '1' : '0';
        } else if constexpr (std::is_enum_v<T>) {
            value(std::string(kEnumInfo<T>.name(v)));
        } else if constexpr (std::is_integral_v<T>) {
            out_ += std::to_string(v);
        } else if constexpr (Sequence<T>) {
            const char *sep = "[";
            for (const auto &e : v) {
                out_ += sep;
                value(e);
                sep = ",";
            }
            out_ += v.empty() ? "[]" : "]";
        } else {
            static_assert(kNoForm<T>, "type has no JSONL form");
        }
    }

    std::string out_;
    std::string prefix_;
};

/**
 * Reads one flat JSON object back through the same field lists. The
 * pairs must come in list order, each under its list name, exactly as
 * JsonWriter wrote them; a torn, reordered or foreign line fails ok()
 * instead of half-parsing.
 */
class JsonReader
{
  public:
    explicit JsonReader(const std::string &line)
        : s_(line), ok_(line.size() >= 2 && line.front() == '{' &&
                        line.back() == '}')
    {}

    template <class T>
    void
    operator()(const char *name, T &v)
    {
        if constexpr (Described<T>) {
            const size_t mark = prefix_.size();
            prefix_ += name;
            prefix_ += '.';
            fields(v, *this);
            prefix_.resize(mark);
        } else {
            std::string got;
            ok_ = ok_ && nextName(got) && got == prefix_ + name && value(v);
        }
    }

    /** An optional trailing group: present when pairs remain. */
    bool optionalTail(bool) const { return ok_ && pos_ + 2 < s_.size(); }

    /** Every visited field parsed and no pair was left over. */
    bool ok() const { return ok_ && pos_ + 2 == s_.size(); }

    /**
     * The "key" pair of a well-formed flat line of scalars, wherever
     * it sits; false for a line that does not parse or has no key.
     */
    static bool lineKey(const std::string &line, TrialKey &key);

  private:
    /** Consume the separator and the next `"name":`. */
    bool nextName(std::string &name);

    /** One scalar after the cursor: a string or a bare token. */
    bool scalar(std::string &text, bool &quoted);

    template <class T>
    bool
    value(T &v)
    {
        if constexpr (requires { v.emplace_back(); }) {
            v.clear();
            if (s_[pos_ + 1] != '[')
                return false;
            if (s_[++pos_ + 1] == ']') {
                ++pos_;
                return true;
            }
            do {
                if (!value(v.emplace_back()))
                    return false;
            } while (s_[++pos_] == ',');
            return s_[pos_] == ']';
        } else {
            std::string text;
            bool quoted = false;
            return scalar(text, quoted) && parse(text, quoted, v);
        }
    }

    static bool parse(const std::string &t, bool quoted, std::string &v);
    static bool parse(const std::string &t, bool quoted, bool &v);
    static bool parse(const std::string &t, bool quoted, TrialKey &v);
    static bool parse(const std::string &t, bool quoted,
                      std::map<std::string, Histogram> &v);

    template <class T>
    static bool
    parse(const std::string &t, bool quoted, T &v)
    {
        if constexpr (std::is_enum_v<T>) {
            return quoted && enumFromName(t, v);
        } else if constexpr (std::is_integral_v<T>) {
            const char *end = t.data() + t.size();
            const auto [at, ec] = std::from_chars(t.data(), end, v);
            return !quoted && !t.empty() && ec == std::errc() &&
                   at == end;
        } else {
            static_assert(kNoForm<T>, "type has no JSONL form");
        }
    }

    const std::string &s_; // ends in '}' whenever ok_
    size_t pos_ = 0;       // the last consumed character
    bool ok_;
    std::string prefix_;
};

} // namespace schema
} // namespace slip

#endif // SLIPSTREAM_HARNESS_SCHEMA_HH

/**
 * @file
 * The slipc <-> slipd application protocol, layered on the versioned
 * frame transport in harness/wire.hh.
 *
 * Connection lifecycle:
 *
 *   client                           server
 *   ------                           ------
 *   Hello {client name}        ->
 *                              <-    HelloAck {version, server name}
 *                                 or HelloReject {server version, why}
 *   BatchRequest {batch}       ->
 *                              <-    TrialResult* (completion order)
 *   [CancelBatch {id}]         ->
 *                              <-    BatchDone {summary}
 *
 * The handshake is the only version-lenient exchange (wire::
 * readFrameInfo): a peer speaking a different protocol revision is
 * told both versions and refused — negotiation fails closed with a
 * diagnosis, never open. Every frame after HelloAck goes through the
 * strict reader.
 *
 * Trial results stream back in *completion* order, each tagged with
 * its deterministic trial index; clients that want the canonical
 * (journal) order sort by index at batch end. The result line bytes
 * are exactly campaignTrialLine()'s, so a batch served over a socket
 * compares byte-for-byte against a local slip_campaign journal.
 */

#ifndef SLIPSTREAM_SERVE_SERVE_PROTO_HH
#define SLIPSTREAM_SERVE_SERVE_PROTO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "detect/detect_params.hh"
#include "harness/fault_campaign.hh"
#include "harness/schema.hh"
#include "harness/wire.hh"
#include "slipstream/fault_injector.hh"
#include "workloads/workloads.hh"

namespace slip::serve
{

/** What a batch asks the server to run. */
enum class BatchKind : uint8_t
{
    Campaign = 0, // fault-injection campaign (FaultCampaignConfig)
    Fuzz = 1,     // differential-fuzz seed window
    Bench = 2,    // fault-free performance sweep (zero-fault trials)
};

inline constexpr unsigned kNumBatchKinds = 3;

/** "campaign", "fuzz", "bench". */
const char *batchKindName(BatchKind kind);

/**
 * One batch of trials. Campaign and Bench batches carry the portable
 * subset of FaultCampaignConfig (everything that shapes trial *plans*
 * and result bytes; isolation/workers/journal stay server policy,
 * preserving the byte-identity invariant). Fuzz batches carry a seed
 * window.
 */
struct BatchRequest
{
    BatchKind kind = BatchKind::Campaign;

    /** Client-chosen id, echoed on every reply frame. */
    uint64_t id = 0;

    // Campaign / Bench.
    std::string name = "serve_campaign";
    std::vector<std::string> workloads; // empty = all eight
    WorkloadSize size = WorkloadSize::Test;
    unsigned trialsPerWorkload = 8;
    unsigned minFaultsPerTrial = 1;
    unsigned maxFaultsPerTrial = 3;
    uint64_t seed = 20260806;
    bool reliableMode = false;
    std::vector<FaultTarget> targets; // empty = mode default
    DetectParams detect;
    AStreamPolicyParams policy;
    Cycle cycleCapPerInst = 10;

    // Fuzz.
    uint64_t seedBegin = 0;
    uint64_t seedEnd = 0;

    /** The equivalent local config (campaign/bench kinds). */
    FaultCampaignConfig toCampaignConfig() const;
};

template <Is<BatchRequest> S, class V>
void
fields(S &b, V &&v)
{
    v("kind", b.kind);
    v("id", b.id);
    v("name", b.name);
    v("workloads", b.workloads);
    v("size", b.size);
    v("trials_per_workload", b.trialsPerWorkload);
    v("min_faults", b.minFaultsPerTrial);
    v("max_faults", b.maxFaultsPerTrial);
    v("seed", b.seed);
    v("reliable", b.reliableMode);
    v("targets", b.targets);
    v("detect", b.detect);
    v("policy", b.policy);
    v("cycle_cap_per_inst", b.cycleCapPerInst);
    v("seed_begin", b.seedBegin);
    v("seed_end", b.seedEnd);
}

/** One finished trial, streamed as it completes. */
struct TrialResultMsg
{
    uint64_t batchId = 0;
    uint64_t index = 0;     // deterministic trial index in the batch
    bool fromCache = false; // served from the result cache
    std::string line;       // canonical JSONL bytes (no newline)
};

template <Is<TrialResultMsg> S, class V>
void
fields(S &m, V &&v)
{
    v("batch_id", m.batchId);
    v("index", m.index);
    v("from_cache", m.fromCache);
    v("line", m.line);
}

/** How a batch ended. */
enum class BatchStatus : uint8_t
{
    Ok = 0,        // every trial completed
    Cancelled = 1, // client revoked the undispatched remainder
    Rejected = 2,  // server draining: batch refused before any trial
    Error = 3,     // server-side failure (message in `error`)
};

inline constexpr unsigned kNumBatchStatuses = 4;

/** "ok", "cancelled", "rejected", "error". */
const char *batchStatusName(BatchStatus status);

} // namespace slip::serve

template <>
inline constexpr slip::EnumInfo<slip::serve::BatchKind>
    slip::kEnumInfo<slip::serve::BatchKind>{slip::serve::kNumBatchKinds,
                                            slip::serve::batchKindName};
template <>
inline constexpr slip::EnumInfo<slip::serve::BatchStatus>
    slip::kEnumInfo<slip::serve::BatchStatus>{
        slip::serve::kNumBatchStatuses, slip::serve::batchStatusName};

namespace slip::serve
{

/** Batch summary, always the last frame of a batch. */
struct BatchDoneMsg
{
    uint64_t batchId = 0;
    BatchStatus status = BatchStatus::Ok;
    uint64_t completed = 0;  // TrialResult frames sent
    uint64_t revoked = 0;    // trials never dispatched (cancel/drain)
    uint64_t cacheHits = 0;  // completed trials served from cache
    uint64_t cacheMisses = 0;
    std::string error;
};

template <Is<BatchDoneMsg> S, class V>
void
fields(S &m, V &&v)
{
    v("batch_id", m.batchId);
    v("status", m.status);
    v("completed", m.completed);
    v("revoked", m.revoked);
    v("cache_hits", m.cacheHits);
    v("cache_misses", m.cacheMisses);
    v("error", m.error);
}

/** Server-lifetime counters (StatsReply payload). */
struct ServeStats
{
    uint64_t connections = 0;
    uint64_t batches = 0;
    uint64_t trialsRun = 0;      // executed (cache misses)
    uint64_t trialsCached = 0;   // served from cache
    uint64_t trialsRevoked = 0;  // cancelled before dispatch
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    uint64_t cacheStores = 0;
    uint64_t cacheEvictions = 0;
    bool draining = false;
};

template <Is<ServeStats> S, class V>
void
fields(S &s, V &&v)
{
    v("connections", s.connections);
    v("batches", s.batches);
    v("trials_run", s.trialsRun);
    v("trials_cached", s.trialsCached);
    v("trials_revoked", s.trialsRevoked);
    v("cache_hits", s.cacheHits);
    v("cache_misses", s.cacheMisses);
    v("cache_stores", s.cacheStores);
    v("cache_evictions", s.cacheEvictions);
    v("draining", s.draining);
}

// ---------------------------------------------------------------------
// Handshake.
// ---------------------------------------------------------------------

/**
 * Client side: send Hello and interpret the reply. Returns false with
 * a one-line diagnosis in `err` — including the "server speaks vX,
 * this client speaks vY" case, read leniently so the mismatch can be
 * *named* rather than surfacing as a torn frame.
 */
bool clientHandshake(int fd, const std::string &clientName,
                     std::string &err);

/**
 * Server side: read the client's Hello (leniently), and either accept
 * (HelloAck) or refuse (HelloReject naming both versions). Returns
 * false after a reject or on transport failure; `clientName` is
 * filled on success.
 */
bool serverHandshake(int fd, const std::string &serverName,
                     std::string &clientName, std::string &err);

} // namespace slip::serve

#endif // SLIPSTREAM_SERVE_SERVE_PROTO_HH

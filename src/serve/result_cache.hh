/**
 * @file
 * Persistent content-addressed result cache for served trials.
 *
 * Entries are addressed by the trial key (campaignTrialKey in
 * harness/fault_campaign.hh): kResultsVersion, the assembled program
 * image, the campaign's identity fields, the full effective
 * SlipstreamParams, the fault plans and the trial index — everything
 * that shapes result bytes, and deliberately NOT isolation mode,
 * worker count or client count, which the byte-identity invariant
 * says cannot change them. A repeated batch — same client, different
 * client, or a slipd restarted yesterday — answers from disk without
 * re-simulating, and a change to the simulator's result bytes (a
 * kResultsVersion bump) misses instead of serving stale lines.
 *
 * Layout: one file per entry, `root/<hh>/<32-hex-key>`, holding the
 * exact JSONL line bytes (no newline). Every line carries its own
 * "key" pair, and a hit must prove it: an entry whose line does not
 * parse or names another key is a miss, and the store that follows
 * replaces it. Stores write to a temp sibling and rename into place,
 * so a killed slipd never leaves a torn entry visible. The two-hex
 * shard keeps directories small at 6-figure entry counts.
 */

#ifndef SLIPSTREAM_SERVE_RESULT_CACHE_HH
#define SLIPSTREAM_SERVE_RESULT_CACHE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "harness/schema.hh"

namespace slip::serve
{

/**
 * The cache itself. Thread-safe: servers probe and store from many
 * connection threads. An empty root disables everything (lookup
 * always misses, store drops), so callers need no special-casing.
 */
class ResultCache
{
  public:
    /**
     * `maxEntries` caps the entry count; 0 consults
     * $SLIPSTREAM_CACHE_MAX (default 65536). When a store would
     * exceed the cap, the oldest entries (by modification time) are
     * evicted in bulk — 1/16th of the cap per sweep, so eviction cost
     * amortizes instead of landing on every store.
     */
    explicit ResultCache(std::string root, uint64_t maxEntries = 0);

    /**
     * True + the stored line on a hit: an entry whose line parses and
     * carries `key` as its "key" pair. Anything else is a miss.
     */
    bool lookup(const TrialKey &key, std::string &line);

    /**
     * Persist one result line (atomic rename, replacing any entry
     * under the key; never throws).
     */
    void store(const TrialKey &key, const std::string &line);

    uint64_t hits() const;
    uint64_t misses() const;
    uint64_t stores() const;
    uint64_t evictions() const;

    /** Entries currently on disk (tracked, not re-scanned). */
    uint64_t entries() const;

    const std::string &root() const { return root_; }
    bool enabled() const { return !root_.empty(); }

    /** Counters above as a StatGroup dump ("serve_cache.*"). */
    void dumpStats(std::ostream &os) const;

  private:
    void evictIfNeeded();

    std::string pathFor(const TrialKey &key) const;

    std::string root_;
    uint64_t maxEntries_;

    mutable std::mutex mu_;
    uint64_t entries_ = 0;
    mutable StatGroup stats_{"serve_cache"};
};

} // namespace slip::serve

#endif // SLIPSTREAM_SERVE_RESULT_CACHE_HH

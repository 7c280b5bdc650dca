#include "serve/result_cache.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "common/env.hh"
#include "common/logging.hh"
#include "obs/trace_session.hh"

namespace fs = std::filesystem;

namespace slip::serve
{

ResultCache::ResultCache(std::string root, uint64_t maxEntries)
    : root_(std::move(root)),
      maxEntries_(maxEntries
                      ? maxEntries
                      : envU64("SLIPSTREAM_CACHE_MAX", 65536))
{
    if (root_.empty())
        return;
    std::error_code ec;
    fs::create_directories(root_, ec);
    if (ec) {
        SLIP_WARN("result cache: cannot create '", root_, "' (",
                  ec.message(), "); caching disabled");
        root_.clear();
        return;
    }
    // Count what a previous slipd left behind — those entries are the
    // whole point of persistence, and the eviction cap must see them.
    uint64_t found = 0;
    for (const auto &shard : fs::directory_iterator(root_, ec)) {
        if (!shard.is_directory())
            continue;
        for (const auto &e :
             fs::directory_iterator(shard.path(), ec))
            if (e.is_regular_file())
                ++found;
    }
    entries_ = found;
}

std::string
ResultCache::pathFor(const TrialKey &key) const
{
    const std::string hex = key.hex();
    return root_ + "/" + hex.substr(0, 2) + "/" + hex;
}

bool
ResultCache::lookup(const TrialKey &key, std::string &line)
{
    if (root_.empty())
        return false;
    std::ifstream in(pathFor(key), std::ios::binary);
    std::string body;
    if (in) {
        std::ostringstream bytes;
        bytes << in.rdbuf();
        body = bytes.str();
    }
    // A hit proves its identity: a torn, corrupt or misfiled entry
    // is a miss, and the store after the re-simulation replaces it.
    TrialKey stored;
    const bool hit = schema::JsonReader::lineKey(body, stored) &&
                     stored == key;
    std::lock_guard<std::mutex> lock(mu_);
    if (!hit) {
        ++stats_.counter("misses");
        return false;
    }
    line = std::move(body);
    ++stats_.counter("hits");
    SLIP_TRACE(obs::Category::Serve, obs::Name::CacheHit,
               obs::Phase::Instant, key.hi, key.lo);
    return true;
}

void
ResultCache::store(const TrialKey &key, const std::string &line)
{
    if (root_.empty())
        return;
    const std::string path = pathFor(key);
    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);
    // Stores follow misses, so an existing entry is a corrupt one (or
    // a concurrent store of the same bytes): replace it either way.
    const bool replacing = fs::exists(path, ec);
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            SLIP_WARN("result cache: cannot write '", tmp, "'");
            return;
        }
        out << line;
        if (!out.good()) {
            SLIP_WARN("result cache: short write to '", tmp, "'");
            fs::remove(tmp, ec);
            return;
        }
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        SLIP_WARN("result cache: rename into '", path, "' failed (",
                  ec.message(), ")");
        fs::remove(tmp, ec);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!replacing)
            ++entries_;
        ++stats_.counter("stores");
    }
    SLIP_TRACE(obs::Category::Serve, obs::Name::CacheStore,
               obs::Phase::Instant, key.hi, key.lo);
    evictIfNeeded();
}

void
ResultCache::evictIfNeeded()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (entries_ <= maxEntries_)
            return;
    }
    // Over the cap: sweep the whole tree once, drop the oldest
    // entries down to cap minus one sweep-quantum so the next stores
    // are free. mtime order is eviction policy, not correctness — a
    // mis-ordered eviction costs one re-simulation.
    std::vector<std::pair<fs::file_time_type, fs::path>> files;
    std::error_code ec;
    for (const auto &shard : fs::directory_iterator(root_, ec)) {
        if (!shard.is_directory())
            continue;
        for (const auto &e :
             fs::directory_iterator(shard.path(), ec)) {
            if (!e.is_regular_file())
                continue;
            files.emplace_back(e.last_write_time(ec), e.path());
        }
    }
    const uint64_t target =
        maxEntries_ > maxEntries_ / 16 ? maxEntries_ - maxEntries_ / 16
                                       : maxEntries_;
    if (files.size() <= target)
        return;
    std::sort(files.begin(), files.end());
    const uint64_t drop = files.size() - target;
    uint64_t dropped = 0;
    for (uint64_t i = 0; i < drop; ++i)
        if (fs::remove(files[i].second, ec))
            ++dropped;
    std::lock_guard<std::mutex> lock(mu_);
    entries_ = files.size() - dropped;
    stats_.counter("evictions") += dropped;
    SLIP_TRACE(obs::Category::Serve, obs::Name::CacheEvict,
               obs::Phase::Instant, dropped, entries_);
}

uint64_t
ResultCache::hits() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_.get("hits");
}

uint64_t
ResultCache::misses() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_.get("misses");
}

uint64_t
ResultCache::stores() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_.get("stores");
}

uint64_t
ResultCache::evictions() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_.get("evictions");
}

uint64_t
ResultCache::entries() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_;
}

void
ResultCache::dumpStats(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu_);
    stats_.counter("entries").reset();
    stats_.counter("entries") += entries_;
    stats_.dump(os);
}

} // namespace slip::serve

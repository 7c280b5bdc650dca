#include "serve/server.hh"

#include <algorithm>
#include <cstring>
#include <csignal>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "fuzz/generator.hh"
#include "fuzz/oracle.hh"
#include "harness/sim_runner.hh"
#include "obs/trace_session.hh"
#include "workloads/workloads.hh"

namespace slip::serve
{

namespace
{

/** Is one frame's worth of data (possibly) waiting on fd? */
bool
pollReadable(int fd, int timeoutMs)
{
    struct pollfd p = {};
    p.fd = fd;
    p.events = POLLIN;
    const int r = ::poll(&p, 1, timeoutMs);
    return r > 0 && (p.revents & (POLLIN | POLLHUP | POLLERR));
}

bool
sendTrialResult(int fd, const TrialResultMsg &m)
{
    return wire::writeFrame(fd, wire::MsgType::TrialResult,
                            schema::encode(m));
}

void
sendBatchDone(int fd, const BatchDoneMsg &m)
{
    wire::writeFrame(fd, wire::MsgType::BatchDone, schema::encode(m));
}

/** The key of one fuzz trial (see result_cache.hh). */
TrialKey
fuzzTrialKey(const BatchRequest &req, uint64_t seed,
             const std::string &source)
{
    wire::Encoder enc;
    enc.putU32(kResultsVersion);
    enc.putString("fuzz");
    enc.putString(req.name);
    enc.putU64(seed);
    // The rendered source is the generator's identity: a generator
    // change produces different text and silently misses.
    enc.putString(source);
    return keyOf(enc.bytes());
}

/** One fuzz seed as a canonical JSONL line (no newline). */
std::string
fuzzTrialLine(const BatchRequest &req, uint64_t seed,
              const TrialKey &key, const JobOutcome &o)
{
    schema::JsonWriter w;
    w("campaign", req.name);
    w("kind", std::string("fuzz"));
    w("seed", seed);
    w("key", key);
    w("status", o.status);
    if (o.status == JobOutcome::Status::Ok)
        w("diverged", !o.metrics.outputCorrect);
    return w.line();
}

} // namespace

Server::Server(ServerOptions opts) : opts_(std::move(opts))
{
    cache_ = std::make_unique<ResultCache>(opts_.cacheDir,
                                           opts_.cacheMax);
}

Server::~Server()
{
    stop();
}

bool
Server::start(std::string &err)
{
    // A dying client must surface as a failed write, not SIGPIPE.
    ::signal(SIGPIPE, SIG_IGN);

    if (opts_.unixPath.empty() && opts_.tcpPort == 0) {
        err = "no listener configured (need a unix path or tcp port)";
        return false;
    }
    if (::pipe(wakePipe_) != 0) {
        err = std::string("pipe: ") + std::strerror(errno);
        return false;
    }

    if (!opts_.unixPath.empty()) {
        struct sockaddr_un addr = {};
        if (opts_.unixPath.size() >= sizeof(addr.sun_path)) {
            err = "unix socket path too long: " + opts_.unixPath;
            return false;
        }
        unixFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (unixFd_ < 0) {
            err = std::string("socket: ") + std::strerror(errno);
            return false;
        }
        ::unlink(opts_.unixPath.c_str());
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, opts_.unixPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::bind(unixFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(unixFd_, 64) != 0) {
            err = "bind/listen on '" + opts_.unixPath +
                  "': " + std::strerror(errno);
            return false;
        }
    }

    if (opts_.tcpPort != 0) {
        tcpFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (tcpFd_ < 0) {
            err = std::string("socket: ") + std::strerror(errno);
            return false;
        }
        int one = 1;
        ::setsockopt(tcpFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        struct sockaddr_in addr = {};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        // Port 1 is "any ephemeral": nothing binds there unprivileged,
        // so treat it as 0 and read the port back.
        addr.sin_port =
            htons(opts_.tcpPort == 1 ? 0 : opts_.tcpPort);
        if (::bind(tcpFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(tcpFd_, 64) != 0) {
            err = std::string("bind/listen on tcp port: ") +
                  std::strerror(errno);
            return false;
        }
        socklen_t len = sizeof(addr);
        ::getsockname(tcpFd_, reinterpret_cast<sockaddr *>(&addr),
                      &len);
        boundTcpPort_ = ntohs(addr.sin_port);
    }

    running_ = true;
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
Server::acceptLoop()
{
    while (!stopping_.load()) {
        struct pollfd fds[3];
        nfds_t n = 0;
        if (unixFd_ >= 0)
            fds[n++] = {unixFd_, POLLIN, 0};
        if (tcpFd_ >= 0)
            fds[n++] = {tcpFd_, POLLIN, 0};
        fds[n++] = {wakePipe_[0], POLLIN, 0};
        if (::poll(fds, n, -1) <= 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        for (nfds_t i = 0; i + 1 < n; ++i) {
            if (!(fds[i].revents & POLLIN))
                continue;
            const int fd = ::accept(fds[i].fd, nullptr, nullptr);
            if (fd < 0)
                continue;
            uint64_t connId;
            {
                std::lock_guard<std::mutex> lock(statsMu_);
                connId = ++stats_.connections;
            }
            std::lock_guard<std::mutex> lock(connMu_);
            connThreads_.emplace_back(
                [this, fd, connId] { serveConnection(fd, connId); });
        }
    }
}

void
Server::serveConnection(int fd, uint64_t connId)
{
    SLIP_TRACE(obs::Category::Serve, obs::Name::ClientConnect,
               obs::Phase::Instant, connId, 0);
    // A malformed frame from one client costs that client, never the
    // daemon: an exception escaping this thread would end the process.
    try {
        serveFrames(fd, connId);
    } catch (const std::exception &e) {
        SLIP_INFORM("slipd: closing connection ", connId, ": ",
                    e.what());
    }
    SLIP_TRACE(obs::Category::Serve, obs::Name::ClientDisconnect,
               obs::Phase::Instant, connId, 0);
    ::close(fd);
}

void
Server::serveFrames(int fd, uint64_t connId)
{
    std::string clientName, err;
    if (!serverHandshake(fd, opts_.name, clientName, err)) {
        SLIP_INFORM("slipd: refused connection ", connId, ": ", err);
        return;
    }

    for (;;) {
        // Poll with a timeout so an idle connection notices stop().
        if (!pollReadable(fd, 200)) {
            if (stopping_.load())
                return;
            continue;
        }
        wire::MsgType type;
        std::string payload;
        if (wire::readFrame(fd, type, payload) != wire::ReadResult::Ok)
            return;
        switch (type) {
          case wire::MsgType::BatchRequest: {
            BatchRequest req;
            try {
                req = schema::decode<BatchRequest>(payload);
            } catch (const FatalError &e) {
                // Well framed, badly encoded: answer it, keep serving.
                BatchDoneMsg done;
                done.status = BatchStatus::Error;
                done.error = std::string("malformed batch request: ") +
                             e.what();
                sendBatchDone(fd, done);
                break;
            }
            handleBatch(fd, req);
            break;
          }
          case wire::MsgType::StatsRequest:
            wire::writeFrame(fd, wire::MsgType::StatsReply,
                             schema::encode(statsSnapshot()));
            break;
          case wire::MsgType::DrainRequest:
            beginDrain();
            wire::writeFrame(fd, wire::MsgType::DrainAck, {});
            break;
          case wire::MsgType::CancelBatch:
            // No batch in flight on this connection: stale cancel.
            break;
          default:
            SLIP_INFORM("slipd: connection ", connId,
                        " sent unexpected frame type ",
                        unsigned(type), "; closing");
            return;
        }
    }
}

void
Server::handleBatch(int fd, const BatchRequest &req)
{
    BatchDoneMsg done;
    done.batchId = req.id;

    if (draining_.load() || stopping_.load()) {
        done.status = BatchStatus::Rejected;
        done.error = "server is draining; submit to another instance "
                     "or retry after restart";
        sendBatchDone(fd, done);
        return;
    }

    {
        std::lock_guard<std::mutex> lock(statsMu_);
        ++activeBatches_;
        ++stats_.batches;
    }
    SLIP_TRACE(obs::Category::Serve, obs::Name::BatchSpan,
               obs::Phase::Begin, req.id, 0);

    size_t totalTrials = 0;
    bool cancelled = false;
    bool clientGone = false;

    // One wave of trials [lo, hi): answer each whose key the cache
    // holds, run the misses on the pool, store and stream their lines.
    const auto runWave = [&](size_t lo, size_t hi, const auto &keyOf,
                             const auto &jobOf, const auto &lineOf) {
        std::vector<size_t> missIdx;
        std::vector<TrialKey> missKey;
        for (size_t i = lo; i < hi; ++i) {
            const TrialKey key = keyOf(i);
            std::string line;
            if (cache_->lookup(key, line)) {
                if (!sendTrialResult(fd, {req.id, i, true, line})) {
                    clientGone = true;
                    return;
                }
                ++done.completed;
                ++done.cacheHits;
                std::lock_guard<std::mutex> lock(statsMu_);
                ++stats_.trialsCached;
            } else {
                SLIP_TRACE(obs::Category::Serve, obs::Name::CacheMiss,
                           obs::Phase::Instant, req.id, i);
                missIdx.push_back(i);
                missKey.push_back(key);
            }
        }
        if (missIdx.empty())
            return;
        SimJobRunner runner(opts_.workers);
        runner.setIsolation(opts_.isolation);
        for (const size_t i : missIdx)
            runner.add(jobOf(i));
        runner.runSupervised([&](size_t job, const JobOutcome &o) {
            const size_t i = missIdx[job];
            const std::string line = lineOf(i, missKey[job], o);
            cache_->store(missKey[job], line);
            if (!sendTrialResult(fd, {req.id, i, false, line}))
                clientGone = true;
            ++done.completed;
            ++done.cacheMisses;
        });
        std::lock_guard<std::mutex> lock(statsMu_);
        stats_.trialsRun += missIdx.size();
    };

    // Between waves: did the client revoke the rest of the batch?
    const auto checkCancel = [&] {
        while (!clientGone && pollReadable(fd, 0)) {
            wire::MsgType type;
            std::string payload;
            if (wire::readFrame(fd, type, payload) !=
                wire::ReadResult::Ok) {
                clientGone = true;
                return;
            }
            if (type == wire::MsgType::CancelBatch &&
                schema::decode<uint64_t>(payload) == req.id)
                cancelled = true;
        }
    };

    try {
        const bool fuzzBatch = req.kind == BatchKind::Fuzz;
        FaultCampaignConfig cfg = req.toCampaignConfig();
        std::vector<CampaignTrialSpec> specs;
        if (fuzzBatch) {
            totalTrials = req.seedEnd > req.seedBegin
                              ? size_t(req.seedEnd - req.seedBegin)
                              : 0;
        } else {
            // A bench sweep is a campaign whose trials plan no faults.
            if (req.kind == BatchKind::Bench)
                cfg.minFaultsPerTrial = cfg.maxFaultsPerTrial = 0;
            specs = planCampaignTrials(cfg);
            totalTrials = specs.size();
        }
        const size_t wave =
            opts_.waveSize ? opts_.waveSize
                           : size_t(4) * SimJobRunner(opts_.workers).jobs();
        // A fuzz wave's rendered programs: each is both the trial's
        // cache identity and its job input.
        std::vector<std::string> sources;
        for (size_t lo = 0, hi = 0; lo < totalTrials && !cancelled &&
                                    !clientGone && !stopping_.load();
             lo = hi) {
            hi = std::min(lo + wave, totalTrials);
            if (!fuzzBatch) {
                runWave(
                    lo, hi,
                    [&](size_t i) {
                        return campaignTrialKey(cfg, specs[i], i);
                    },
                    [&](size_t i) {
                        return [&cfg, s = &specs[i],
                                i](const CancelToken &cancel) {
                            return runCampaignTrial(cfg, *s, i, cancel);
                        };
                    },
                    [&](size_t i, const TrialKey &, const JobOutcome &o) {
                        return campaignTrialLine(
                            cfg, i, recordCampaignTrial(cfg, specs[i], i, o));
                    });
            } else {
                sources.clear();
                for (size_t i = lo; i < hi; ++i)
                    sources.push_back(
                        fuzz::generate(req.seedBegin + i).render());
                runWave(
                    lo, hi,
                    [&](size_t i) {
                        return fuzzTrialKey(req, req.seedBegin + i,
                                            sources[i - lo]);
                    },
                    [&](size_t i) {
                        return [src = sources[i - lo]](const CancelToken &) {
                            const fuzz::OracleVerdict v =
                                fuzz::runOracle(assemble(src));
                            RunMetrics m;
                            m.model = "fuzz_oracle";
                            m.outputCorrect = !v.diverged;
                            m.outputBytes = v.report.size();
                            return m;
                        };
                    },
                    [&](size_t i, const TrialKey &key, const JobOutcome &o) {
                        return fuzzTrialLine(req, req.seedBegin + i, key, o);
                    });
            }
            checkCancel();
        }
    } catch (const std::exception &e) {
        done.status = BatchStatus::Error;
        done.error = e.what();
        SLIP_WARN("slipd: batch ", req.id, " failed: ", e.what());
    }

    if (done.status == BatchStatus::Ok) {
        done.revoked = totalTrials - done.completed;
        if (cancelled || done.revoked > 0)
            done.status = BatchStatus::Cancelled;
        if (done.revoked > 0) {
            SLIP_TRACE(obs::Category::Serve,
                       obs::Name::BatchCancelled,
                       obs::Phase::Instant, req.id, done.revoked);
            std::lock_guard<std::mutex> lock(statsMu_);
            stats_.trialsRevoked += done.revoked;
        }
    }

    {
        std::lock_guard<std::mutex> lock(statsMu_);
        --activeBatches_;
    }
    idleCv_.notify_all();
    SLIP_TRACE(obs::Category::Serve, obs::Name::BatchSpan,
               obs::Phase::End, req.id, done.completed);

    if (!clientGone)
        sendBatchDone(fd, done);
}

void
Server::beginDrain()
{
    const bool was = draining_.exchange(true);
    if (!was) {
        SLIP_TRACE(obs::Category::Serve, obs::Name::DrainSpan,
                   obs::Phase::Begin, 0, 0);
        SLIP_INFORM("slipd: draining — finishing in-flight batches, "
                    "rejecting new ones");
    }
}

void
Server::waitIdle()
{
    std::unique_lock<std::mutex> lock(statsMu_);
    idleCv_.wait(lock, [this] { return activeBatches_ == 0; });
}

void
Server::stop()
{
    if (!running_.exchange(false))
        return;
    stopping_ = true;
    // Wake the accept loop.
    if (wakePipe_[1] >= 0) {
        const ssize_t n = ::write(wakePipe_[1], "x", 1);
        (void)n;
    }
    if (acceptThread_.joinable())
        acceptThread_.join();
    {
        std::lock_guard<std::mutex> lock(connMu_);
        for (std::thread &t : connThreads_)
            if (t.joinable())
                t.join();
        connThreads_.clear();
    }
    if (unixFd_ >= 0) {
        ::close(unixFd_);
        unixFd_ = -1;
        ::unlink(opts_.unixPath.c_str());
    }
    if (tcpFd_ >= 0) {
        ::close(tcpFd_);
        tcpFd_ = -1;
    }
    for (int &fd : wakePipe_) {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }
    if (draining_.load()) {
        SLIP_TRACE(obs::Category::Serve, obs::Name::DrainSpan,
                   obs::Phase::End, 0, 0);
    }
}

ServeStats
Server::statsSnapshot() const
{
    ServeStats s;
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        s = stats_;
    }
    s.cacheHits = cache_->hits();
    s.cacheMisses = cache_->misses();
    s.cacheStores = cache_->stores();
    s.cacheEvictions = cache_->evictions();
    s.draining = draining_.load();
    return s;
}

} // namespace slip::serve

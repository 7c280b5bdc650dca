/**
 * The slipd campaign-server stack: content-addressed result cache
 * (key stability, persistence, eviction), version negotiation that
 * fails closed in both directions with a diagnosis naming both
 * revisions, torn mid-stream frames surfacing as errors instead of
 * hangs, and the served-batch contracts — byte identity against the
 * single-process pipeline, cache hits on resubmission, cancellation
 * revoking undispatched trials, and drain rejecting new batches.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/cancel.hh"
#include "harness/fault_campaign.hh"
#include "harness/sim_runner.hh"
#include "harness/schema.hh"
#include "harness/wire.hh"
#include "serve/client.hh"
#include "serve/result_cache.hh"
#include "serve/serve_proto.hh"
#include "serve/server.hh"

namespace slip::serve
{
namespace
{

namespace fs = std::filesystem;

/** A fresh scratch directory, removed on destruction. */
struct ScratchDir
{
    ScratchDir()
    {
        char tmpl[] = "/tmp/slip_serve_test.XXXXXX";
        path = mkdtemp(tmpl) ? tmpl : "";
        EXPECT_FALSE(path.empty());
    }
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    std::string path;
};

// ---------------------------------------------------------------------
// Result cache.
// ---------------------------------------------------------------------

/** A cacheable line: any flat JSONL object carrying its key. */
std::string
lineFor(const TrialKey &key, const std::string &body)
{
    return "{\"key\":\"" + key.hex() + "\",\"body\":\"" + body + "\"}";
}

TEST(ResultCache, KeyIsStableAndContentSensitive)
{
    const TrialKey a = keyOf("trial-bytes");
    const TrialKey b = keyOf("trial-bytes");
    const TrialKey c = keyOf("trial-byteS");
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a == c);
    EXPECT_EQ(a.hex().size(), 32u);
    EXPECT_NE(a.hex(), c.hex());
}

TEST(ResultCache, StoreThenLookupRoundTrips)
{
    ScratchDir dir;
    ResultCache cache(dir.path + "/cache", 100);
    const TrialKey key = keyOf("k1");

    std::string line;
    EXPECT_FALSE(cache.lookup(key, line));
    EXPECT_EQ(cache.misses(), 1u);

    cache.store(key, lineFor(key, "trial 0"));
    EXPECT_TRUE(cache.lookup(key, line));
    EXPECT_EQ(line, lineFor(key, "trial 0"));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.stores(), 1u);
}

TEST(ResultCache, PersistsAcrossInstances)
{
    ScratchDir dir;
    const TrialKey key = keyOf("survives-restart");
    {
        ResultCache cache(dir.path + "/cache", 100);
        cache.store(key, lineFor(key, "line-bytes"));
    }
    ResultCache reopened(dir.path + "/cache", 100);
    std::string line;
    EXPECT_TRUE(reopened.lookup(key, line));
    EXPECT_EQ(line, lineFor(key, "line-bytes"));
}

TEST(ResultCache, EvictsOldestWhenOverCap)
{
    ScratchDir dir;
    ResultCache cache(dir.path + "/cache", 16);
    for (int i = 0; i < 32; ++i) {
        const TrialKey key = keyOf("entry-" + std::to_string(i));
        cache.store(key, lineFor(key, "line-" + std::to_string(i)));
    }
    EXPECT_GT(cache.evictions(), 0u);
    EXPECT_LE(cache.entries(), 16u);
}

TEST(ResultCache, EmptyRootDisablesEverything)
{
    ResultCache cache("", 100);
    EXPECT_FALSE(cache.enabled());
    const TrialKey key = keyOf("k");
    cache.store(key, lineFor(key, "line"));
    std::string line;
    EXPECT_FALSE(cache.lookup(key, line));
    EXPECT_EQ(cache.stores(), 0u);
}

TEST(ResultCache, HitMustProveItsKey)
{
    // An entry is only as good as the key inside it: a line without
    // one, a line naming another key, and a torn line all miss.
    ScratchDir dir;
    ResultCache cache(dir.path + "/cache", 100);
    const TrialKey key = keyOf("mine");
    std::string line;
    for (const std::string &bad :
         {std::string("{\"body\":\"keyless\"}"),
          lineFor(keyOf("someone else"), "misfiled"),
          lineFor(key, "torn").substr(0, 30)}) {
        cache.store(key, bad);
        EXPECT_FALSE(cache.lookup(key, line)) << bad;
    }
    EXPECT_EQ(cache.hits(), 0u);
    // Each store replaced the entry in place: still one entry.
    EXPECT_EQ(cache.entries(), 1u);
    cache.store(key, lineFor(key, "good"));
    ASSERT_TRUE(cache.lookup(key, line));
    EXPECT_EQ(line, lineFor(key, "good"));
}

TEST(ResultCache, CampaignKeySeparatesSeedTrialAndBackend)
{
    FaultCampaignConfig cfg;
    cfg.workloads = {"compress"};
    cfg.size = WorkloadSize::Test;
    cfg.trialsPerWorkload = 2;
    cfg.seed = 7;
    const std::vector<CampaignTrialSpec> specs =
        planCampaignTrials(cfg);
    ASSERT_GE(specs.size(), 2u);

    const TrialKey base = campaignTrialKey(cfg, specs[0], 0);
    EXPECT_EQ(base, campaignTrialKey(cfg, specs[0], 0));
    EXPECT_FALSE(base == campaignTrialKey(cfg, specs[0], 1));
    EXPECT_FALSE(base == campaignTrialKey(cfg, specs[1], 1));

    FaultCampaignConfig other = cfg;
    other.seed = 8;
    const std::vector<CampaignTrialSpec> otherSpecs =
        planCampaignTrials(other);
    EXPECT_FALSE(base == campaignTrialKey(other, otherSpecs[0], 0));

    FaultCampaignConfig replay = cfg;
    replay.params.detect.kind = DetectBackendKind::Replay;
    EXPECT_FALSE(base == campaignTrialKey(replay, specs[0], 0));

    // Isolation and worker count must NOT reach the key: byte
    // identity says they cannot change result bytes.
    FaultCampaignConfig forked = cfg;
    forked.isolation = IsolationMode::Fork;
    forked.workers = 7;
    EXPECT_EQ(base, campaignTrialKey(forked, specs[0], 0));
}

TEST(ResultCache, CampaignKeySeparatesAStreamPolicies)
{
    FaultCampaignConfig cfg;
    cfg.workloads = {"compress"};
    cfg.size = WorkloadSize::Test;
    cfg.trialsPerWorkload = 1;
    cfg.seed = 7;
    const std::vector<CampaignTrialSpec> specs =
        planCampaignTrials(cfg);
    ASSERT_GE(specs.size(), 1u);
    const TrialKey base = campaignTrialKey(cfg, specs[0], 0);

    // Same program, same seed, different shortening policy: the keys
    // must differ pairwise, or one policy's cached line would answer
    // for another's trial.
    std::vector<TrialKey> keys;
    for (unsigned i = 0; i < kNumAStreamPolicies; ++i) {
        FaultCampaignConfig alt = cfg;
        alt.params.aPolicy.kind = AStreamPolicyKind(i);
        keys.push_back(campaignTrialKey(alt, specs[0], 0));
    }
    EXPECT_EQ(keys[size_t(AStreamPolicyKind::IRRemoval)], base);
    for (size_t a = 0; a < keys.size(); ++a)
        for (size_t b = a + 1; b < keys.size(); ++b)
            EXPECT_FALSE(keys[a] == keys[b]) << a << " vs " << b;

    // Policy tuning shapes trial dynamics, so it reaches the key too.
    FaultCampaignConfig tuned = cfg;
    tuned.params.aPolicy.runaheadTraces += 1;
    EXPECT_FALSE(base == campaignTrialKey(tuned, specs[0], 0));

    // And both policies really do land as two distinct cache entries.
    ScratchDir dir;
    ResultCache cache(dir.path + "/cache", 100);
    cache.store(keys[0], lineFor(keys[0], "ir"));
    cache.store(keys[1], lineFor(keys[1], "runahead"));
    std::string line;
    ASSERT_TRUE(cache.lookup(keys[0], line));
    EXPECT_EQ(line, lineFor(keys[0], "ir"));
    ASSERT_TRUE(cache.lookup(keys[1], line));
    EXPECT_EQ(line, lineFor(keys[1], "runahead"));
}

TEST(ServeProto, BatchRequestRoundTripsPolicyParams)
{
    BatchRequest req;
    req.kind = BatchKind::Campaign;
    req.id = 3;
    req.name = "proto_policy";
    req.workloads = {"compress"};
    req.policy.kind = AStreamPolicyKind::FilteredRunahead;
    req.policy.runaheadTraces = 9;
    req.policy.missLines = 32;
    req.policy.cooldownTraces = 5;

    const BatchRequest got =
        schema::decode<BatchRequest>(schema::encode(req));
    EXPECT_EQ(got.policy.kind, AStreamPolicyKind::FilteredRunahead);
    EXPECT_EQ(got.policy.runaheadTraces, 9u);
    EXPECT_EQ(got.policy.missLines, 32u);
    EXPECT_EQ(got.policy.cooldownTraces, 5u);

    // The served trial runs under the requested policy, not the
    // server's default.
    const FaultCampaignConfig cfg = got.toCampaignConfig();
    EXPECT_EQ(cfg.params.aPolicy.kind,
              AStreamPolicyKind::FilteredRunahead);
    EXPECT_EQ(cfg.params.aPolicy.runaheadTraces, 9u);
}

// ---------------------------------------------------------------------
// Version negotiation — both directions fail closed with a diagnosis.
// ---------------------------------------------------------------------

TEST(ServeHandshake, OldClientIsRejectedWithBothVersions)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    // A v1 client's Hello, stamped with the old header version.
    wire::Encoder hello;
    hello.putString("old-client");
    ASSERT_TRUE(wire::writeFrameVersion(fds[0], wire::MsgType::Hello, 1,
                                        hello.bytes()));

    std::string clientName, err;
    EXPECT_FALSE(serverHandshake(fds[1], "testd", clientName, err));
    EXPECT_NE(err.find("v1"), std::string::npos) << err;
    EXPECT_NE(err.find("v" + std::to_string(wire::kVersion)),
              std::string::npos)
        << err;

    // The server told the old client why, not just hung up: a
    // HelloReject frame naming the server's revision.
    wire::FrameInfo reply;
    ASSERT_EQ(wire::readFrameInfo(fds[0], reply), wire::ReadResult::Ok);
    EXPECT_EQ(reply.type, wire::MsgType::HelloReject);
    close(fds[0]);
    close(fds[1]);
}

TEST(ServeHandshake, OldServerIsRefusedWithBothVersions)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    std::string err;
    std::atomic<bool> ok{true};
    std::thread client([&] {
        if (clientHandshake(fds[0], "new-client", err))
            ok = false;
    });

    // The fake old server acks with a v1 header — the client must
    // refuse it even though the frame parses.
    wire::FrameInfo hello;
    ASSERT_EQ(wire::readFrameInfo(fds[1], hello), wire::ReadResult::Ok);
    EXPECT_EQ(hello.type, wire::MsgType::Hello);
    wire::Encoder ack;
    ack.putU16(1);
    ack.putString("oldd");
    ASSERT_TRUE(wire::writeFrameVersion(fds[1], wire::MsgType::HelloAck,
                                        1, ack.bytes()));
    client.join();
    EXPECT_TRUE(ok.load()) << "client accepted a v1 server";
    EXPECT_NE(err.find("v1"), std::string::npos) << err;
    EXPECT_NE(err.find("v" + std::to_string(wire::kVersion)),
              std::string::npos)
        << err;
    close(fds[0]);
    close(fds[1]);
}

TEST(ServeHandshake, RejectFromCurrentServerNamesItsVersion)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    std::string err;
    std::thread client([&] {
        EXPECT_FALSE(clientHandshake(fds[0], "client", err));
    });

    wire::FrameInfo hello;
    ASSERT_EQ(wire::readFrameInfo(fds[1], hello), wire::ReadResult::Ok);
    wire::Encoder reject;
    reject.putU16(wire::kVersion);
    reject.putString("draining");
    ASSERT_TRUE(wire::writeFrame(fds[1], wire::MsgType::HelloReject,
                                 reject.bytes()));
    client.join();
    EXPECT_NE(err.find("draining"), std::string::npos) << err;
    close(fds[0]);
    close(fds[1]);
}

// ---------------------------------------------------------------------
// Torn mid-stream frames: errors, never hangs or misparses.
// ---------------------------------------------------------------------

TEST(ServeFraming, TruncatedHeaderIsErrorNotHang)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // Half a header, then close: the peer died mid-frame.
    const char partial[] = {0x10, 0x00, 0x00};
    ASSERT_EQ(write(fds[1], partial, sizeof(partial)),
              ssize_t(sizeof(partial)));
    close(fds[1]);

    wire::MsgType type;
    std::string payload;
    EXPECT_EQ(wire::readFrame(fds[0], type, payload),
              wire::ReadResult::Error);
    close(fds[0]);
}

TEST(ServeFraming, TruncatedPayloadIsErrorNotHang)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    // A hand-built header promising 64 payload bytes, then only 3:
    // len | magic | version | type.
    std::string frame;
    const uint32_t len = 64;
    const uint32_t magic = 0x53504C57;
    const uint16_t version = wire::kVersion;
    frame.append(reinterpret_cast<const char *>(&len), 4);
    frame.append(reinterpret_cast<const char *>(&magic), 4);
    frame.append(reinterpret_cast<const char *>(&version), 2);
    frame.push_back(char(wire::MsgType::TrialResult));
    frame.append("abc"); // 3 of the promised 64 bytes
    ASSERT_EQ(write(fds[1], frame.data(), frame.size()),
              ssize_t(frame.size()));
    close(fds[1]);

    wire::MsgType type;
    std::string payload;
    EXPECT_EQ(wire::readFrame(fds[0], type, payload),
              wire::ReadResult::Error);
    close(fds[0]);
}

TEST(ServeFraming, MidStreamVersionDriftIsStrictlyRejected)
{
    // After the handshake every frame goes through the strict reader:
    // a frame stamped with a foreign version is an Error even though
    // readFrameInfo would have accepted it.
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    wire::Encoder enc;
    enc.putU64(1);
    ASSERT_TRUE(wire::writeFrameVersion(
        fds[1], wire::MsgType::CancelBatch, 1, enc.bytes()));
    close(fds[1]);

    wire::MsgType type;
    std::string payload;
    EXPECT_EQ(wire::readFrame(fds[0], type, payload),
              wire::ReadResult::Error);
    close(fds[0]);
}

// ---------------------------------------------------------------------
// Served batches end to end.
// ---------------------------------------------------------------------

struct ServerFixture : ::testing::Test
{
    void
    SetUp() override
    {
        opts.unixPath = dir.path + "/slipd.sock";
        opts.cacheDir = dir.path + "/cache";
        opts.workers = 2;
        server = std::make_unique<Server>(opts);
        std::string err;
        ASSERT_TRUE(server->start(err)) << err;
    }

    void
    TearDown() override
    {
        server->stop();
    }

    BatchRequest
    smallBatch() const
    {
        BatchRequest req;
        req.kind = BatchKind::Campaign;
        req.id = 1;
        req.name = "serve_test";
        req.workloads = {"compress"};
        req.size = WorkloadSize::Test;
        req.trialsPerWorkload = 4;
        req.seed = 41;
        return req;
    }

    /** Submit and return (sorted journal, done). */
    std::string
    submit(const BatchRequest &req, BatchDoneMsg &done)
    {
        Client client;
        std::string err;
        EXPECT_TRUE(client.connect(opts.unixPath, err)) << err;
        EXPECT_TRUE(client.handshake("test-client", err)) << err;
        std::map<uint64_t, std::string> lines;
        EXPECT_TRUE(client.submitBatch(
            req,
            [&](const TrialResultMsg &m) {
                lines[m.index] = m.line;
                return true;
            },
            done, err))
            << err;
        std::string journal;
        for (const auto &[index, line] : lines) {
            journal += line;
            journal += '\n';
        }
        return journal;
    }

    ScratchDir dir;
    ServerOptions opts;
    std::unique_ptr<Server> server;
};

TEST_F(ServerFixture, BatchMatchesSingleProcessPipelineByteForByte)
{
    const BatchRequest req = smallBatch();

    // The reference: the same batch through the local pipeline.
    const FaultCampaignConfig cfg = req.toCampaignConfig();
    const std::vector<CampaignTrialSpec> specs =
        planCampaignTrials(cfg);
    std::string expected;
    for (size_t i = 0; i < specs.size(); ++i) {
        CancelToken cancel;
        JobOutcome o;
        o.metrics = runCampaignTrial(cfg, specs[i], i, cancel);
        expected +=
            campaignTrialLine(cfg, i,
                              recordCampaignTrial(cfg, specs[i], i, o));
        expected += '\n';
    }

    BatchDoneMsg done;
    const std::string served = submit(req, done);
    EXPECT_EQ(done.status, BatchStatus::Ok);
    EXPECT_EQ(done.completed, specs.size());
    EXPECT_EQ(served, expected);
}

TEST_F(ServerFixture, ResubmittedBatchIsServedFromCache)
{
    const BatchRequest req = smallBatch();
    BatchDoneMsg first;
    const std::string cold = submit(req, first);
    EXPECT_EQ(first.cacheHits, 0u);
    EXPECT_EQ(first.cacheMisses, first.completed);

    BatchDoneMsg second;
    const std::string warm = submit(req, second);
    EXPECT_EQ(second.cacheHits, second.completed);
    EXPECT_EQ(second.cacheMisses, 0u);
    EXPECT_EQ(warm, cold);

    const ServeStats stats = server->statsSnapshot();
    EXPECT_EQ(stats.trialsCached, second.completed);
}

TEST_F(ServerFixture, CorruptCacheEntryIsReSimulatedAndHealed)
{
    const BatchRequest req = smallBatch();
    BatchDoneMsg cold;
    const std::string journal = submit(req, cold);
    ASSERT_EQ(cold.cacheMisses, cold.completed);

    // Garble one entry on disk, as a torn write or a bad disk would.
    std::string victim;
    for (const auto &e : fs::recursive_directory_iterator(opts.cacheDir))
        if (e.is_regular_file())
            victim = e.path().string();
    ASSERT_FALSE(victim.empty());
    {
        std::ofstream out(victim, std::ios::trunc);
        out << "garbage";
    }

    const uint64_t ranBefore = server->statsSnapshot().trialsRun;
    BatchDoneMsg warm;
    EXPECT_EQ(submit(req, warm), journal);
    EXPECT_EQ(warm.cacheMisses, 1u);
    EXPECT_EQ(warm.cacheHits, warm.completed - 1);
    EXPECT_EQ(server->statsSnapshot().trialsRun, ranBefore + 1);

    // The re-simulation replaced the entry: everything hits now.
    BatchDoneMsg healed;
    EXPECT_EQ(submit(req, healed), journal);
    EXPECT_EQ(healed.cacheHits, healed.completed);
}

/** A raw connection to the fixture's socket. */
int
rawConnect(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    return fd;
}

TEST_F(ServerFixture, MalformedFramesCostTheirClientNotTheDaemon)
{
    // A well-framed Hello with an empty payload: the connection is
    // closed, the daemon lives.
    const int bad = rawConnect(opts.unixPath);
    ASSERT_TRUE(wire::writeFrame(bad, wire::MsgType::Hello, ""));
    wire::MsgType type;
    std::string payload;
    EXPECT_NE(wire::readFrame(bad, type, payload), wire::ReadResult::Ok);
    ::close(bad);

    // A well-framed BatchRequest with an empty payload, after a good
    // handshake: answered with an Error BatchDone.
    const int fd = rawConnect(opts.unixPath);
    std::string err;
    ASSERT_TRUE(clientHandshake(fd, "malformed", err)) << err;
    ASSERT_TRUE(wire::writeFrame(fd, wire::MsgType::BatchRequest, ""));
    ASSERT_EQ(wire::readFrame(fd, type, payload), wire::ReadResult::Ok);
    ASSERT_EQ(type, wire::MsgType::BatchDone);
    const BatchDoneMsg done = schema::decode<BatchDoneMsg>(payload);
    EXPECT_EQ(done.status, BatchStatus::Error);
    EXPECT_NE(done.error.find("malformed"), std::string::npos)
        << done.error;
    ::close(fd);

    // A second client is still served.
    Client client;
    ASSERT_TRUE(client.connect(opts.unixPath, err)) << err;
    ASSERT_TRUE(client.handshake("after", err)) << err;
    ServeStats stats;
    ASSERT_TRUE(client.queryStats(stats, err)) << err;
    EXPECT_GE(stats.connections, 3u);
}

TEST(ServeClient, MalformedRepliesAreErrorsNotAborts)
{
    // A fake server that handshakes properly, then answers a batch
    // and a stats query with well-framed, empty payloads, and finally
    // rejects a Hello with an empty reason payload.
    ScratchDir dir;
    const std::string path = dir.path + "/fake.sock";
    const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(lfd, 4), 0);
    std::thread fake([lfd] {
        const wire::MsgType replies[] = {wire::MsgType::TrialResult,
                                         wire::MsgType::StatsReply};
        for (const wire::MsgType reply : replies) {
            const int fd = ::accept(lfd, nullptr, nullptr);
            std::string name, err;
            wire::MsgType type;
            std::string payload;
            if (serverHandshake(fd, "fake", name, err) &&
                wire::readFrame(fd, type, payload) == wire::ReadResult::Ok)
                wire::writeFrame(fd, reply, "");
            ::close(fd);
        }
        const int fd = ::accept(lfd, nullptr, nullptr);
        wire::FrameInfo hello;
        wire::readFrameInfo(fd, hello);
        wire::writeFrame(fd, wire::MsgType::HelloReject, "");
        ::close(fd);
    });

    std::string err;
    {
        Client client;
        ASSERT_TRUE(client.connect(path, err)) << err;
        ASSERT_TRUE(client.handshake("c1", err)) << err;
        BatchRequest req;
        BatchDoneMsg done;
        EXPECT_FALSE(client.submitBatch(req, {}, done, err));
        EXPECT_NE(err.find("malformed"), std::string::npos) << err;
    }
    {
        Client client;
        ASSERT_TRUE(client.connect(path, err)) << err;
        ASSERT_TRUE(client.handshake("c2", err)) << err;
        ServeStats stats;
        EXPECT_FALSE(client.queryStats(stats, err));
        EXPECT_NE(err.find("malformed"), std::string::npos) << err;
    }
    {
        Client client;
        ASSERT_TRUE(client.connect(path, err)) << err;
        EXPECT_FALSE(client.handshake("c3", err));
        EXPECT_NE(err.find("malformed"), std::string::npos) << err;
    }
    fake.join();
    ::close(lfd);
}

TEST_F(ServerFixture, TwoPoliciesOnSameProgramDoNotShareCacheEntries)
{
    // Same program, same seed, same trial count — only the A-stream
    // policy differs. If the policy were missing from the cache key,
    // the second batch would be served the first batch's lines.
    BatchRequest ir = smallBatch();
    BatchDoneMsg first;
    const std::string irJournal = submit(ir, first);
    EXPECT_EQ(first.cacheHits, 0u);
    EXPECT_EQ(first.cacheMisses, first.completed);

    BatchRequest reliability = smallBatch();
    reliability.policy.kind = AStreamPolicyKind::ReliabilityRunahead;
    BatchDoneMsg second;
    const std::string relJournal = submit(reliability, second);
    EXPECT_EQ(second.cacheHits, 0u) << "policy aliased in the cache";
    EXPECT_EQ(second.cacheMisses, second.completed);

    // The journals carry their own policy tags, so even identical
    // outcomes cannot produce identical bytes.
    EXPECT_NE(irJournal.find("\"policy\":\"ir\""), std::string::npos);
    EXPECT_NE(relJournal.find("\"policy\":\"reliability\""),
              std::string::npos);
    EXPECT_NE(irJournal, relJournal);

    // Resubmitting each batch now hits its own entry.
    BatchDoneMsg warm;
    EXPECT_EQ(submit(ir, warm), irJournal);
    EXPECT_EQ(warm.cacheHits, warm.completed);
    EXPECT_EQ(submit(reliability, warm), relJournal);
    EXPECT_EQ(warm.cacheHits, warm.completed);
}

TEST_F(ServerFixture, FuzzBatchStreamsSeedWindow)
{
    BatchRequest req;
    req.kind = BatchKind::Fuzz;
    req.id = 9;
    req.name = "serve_fuzz";
    req.seedBegin = 0;
    req.seedEnd = 3;
    BatchDoneMsg done;
    const std::string journal = submit(req, done);
    EXPECT_EQ(done.status, BatchStatus::Ok);
    EXPECT_EQ(done.completed, 3u);
    EXPECT_NE(journal.find("\"kind\":\"fuzz\""), std::string::npos)
        << journal;

    BatchDoneMsg warm;
    submit(req, warm);
    EXPECT_EQ(warm.cacheHits, 3u);
}

TEST_F(ServerFixture, DrainRejectsNewBatches)
{
    server->beginDrain();
    BatchDoneMsg done;
    submit(smallBatch(), done);
    EXPECT_EQ(done.status, BatchStatus::Rejected);
    EXPECT_EQ(done.completed, 0u);
    EXPECT_NE(done.error.find("draining"), std::string::npos)
        << done.error;
}

TEST(ServeCancel, CancelRevokesUndispatchedTrials)
{
    // Wave size 1 so a cancel sent after the first result can still
    // revoke the tail of the batch.
    ScratchDir dir;
    ServerOptions opts;
    opts.unixPath = dir.path + "/slipd.sock";
    opts.cacheDir = ""; // no cache: every trial really runs
    opts.workers = 1;
    opts.waveSize = 1;
    Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    BatchRequest req;
    req.kind = BatchKind::Campaign;
    req.id = 5;
    req.name = "serve_cancel";
    req.workloads = {"compress"};
    req.size = WorkloadSize::Test;
    req.trialsPerWorkload = 8;
    req.seed = 17;

    Client client;
    ASSERT_TRUE(client.connect(opts.unixPath, err)) << err;
    ASSERT_TRUE(client.handshake("canceller", err)) << err;
    BatchDoneMsg done;
    unsigned received = 0;
    ASSERT_TRUE(client.submitBatch(
        req,
        [&](const TrialResultMsg &) {
            return ++received > 1; // cancel after the first result
        },
        done, err))
        << err;
    EXPECT_EQ(done.status, BatchStatus::Cancelled);
    EXPECT_GT(done.revoked, 0u);
    EXPECT_LT(done.completed, 8u);
    EXPECT_EQ(done.completed + done.revoked, 8u);

    const ServeStats stats = server.statsSnapshot();
    EXPECT_EQ(stats.trialsRevoked, done.revoked);
    server.stop();
}

} // namespace
} // namespace slip::serve

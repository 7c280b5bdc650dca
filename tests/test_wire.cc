#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <unistd.h>

#include "common/logging.hh"
#include "harness/sim_runner.hh"
#include "harness/schema.hh"
#include "harness/wire.hh"
#include "serve/serve_proto.hh"

namespace slip::wire
{
namespace
{

TEST(WireEncoder, IntegersRoundTrip)
{
    Encoder enc;
    enc.putU8(0xab);
    enc.putU16(0xbeef);
    enc.putU32(0xdeadbeefu);
    enc.putU64(0x0123456789abcdefull);
    schema::encode(enc, int32_t(-42));
    schema::encode(enc, true);
    schema::encode(enc, false);

    Decoder dec(enc.bytes());
    EXPECT_EQ(dec.getU8(), 0xab);
    EXPECT_EQ(dec.getU16(), 0xbeef);
    EXPECT_EQ(dec.getU32(), 0xdeadbeefu);
    EXPECT_EQ(dec.getU64(), 0x0123456789abcdefull);
    int32_t i = 0;
    bool yes = false, no = true;
    schema::decode(dec, i);
    schema::decode(dec, yes);
    schema::decode(dec, no);
    EXPECT_EQ(i, -42);
    EXPECT_TRUE(yes);
    EXPECT_FALSE(no);
    EXPECT_TRUE(dec.atEnd());
}

TEST(WireEncoder, IntegersAreLittleEndian)
{
    // The layout is part of the protocol (version 1), not an
    // implementation detail: a future mixed-endian supervisor/worker
    // pair must agree on it.
    Encoder enc;
    enc.putU32(0x04030201u);
    const std::string &b = enc.bytes();
    ASSERT_EQ(b.size(), 4u);
    EXPECT_EQ(uint8_t(b[0]), 1);
    EXPECT_EQ(uint8_t(b[1]), 2);
    EXPECT_EQ(uint8_t(b[2]), 3);
    EXPECT_EQ(uint8_t(b[3]), 4);
}

TEST(WireEncoder, DoublesRoundTripExactly)
{
    // Bit-pattern transport: determinism across isolation modes
    // depends on doubles surviving without a decimal detour.
    const double values[] = {0.0, -0.0, 1.0 / 3.0, 1e-308, 6.02e23,
                             -123.456789012345678};
    Encoder enc;
    for (double v : values)
        enc.putDouble(v);
    enc.putDouble(std::nan(""));

    Decoder dec(enc.bytes());
    for (double v : values) {
        const double got = dec.getDouble();
        uint64_t a = 0, b = 0;
        std::memcpy(&a, &v, sizeof(a));
        std::memcpy(&b, &got, sizeof(b));
        EXPECT_EQ(a, b);
    }
    EXPECT_TRUE(std::isnan(dec.getDouble()));
}

TEST(WireEncoder, StringsRoundTripIncludingNuls)
{
    Encoder enc;
    enc.putString("");
    enc.putString(std::string("a\0b", 3));
    enc.putString("plain");

    Decoder dec(enc.bytes());
    EXPECT_EQ(dec.getString(), "");
    EXPECT_EQ(dec.getString(), std::string("a\0b", 3));
    EXPECT_EQ(dec.getString(), "plain");
    EXPECT_TRUE(dec.atEnd());
}

TEST(WireDecoder, TruncationIsFatalNotSilent)
{
    Encoder enc;
    enc.putU64(7);
    const std::string whole = enc.bytes();

    Decoder short1(whole);
    EXPECT_EQ(short1.getU64(), 7u);
    EXPECT_THROW(short1.getU8(), FatalError); // past the end

    const std::string torn = whole.substr(0, 3);
    Decoder short2(torn);
    EXPECT_THROW(short2.getU64(), FatalError);
}

TEST(WireDecoder, TruncatedStringIsFatal)
{
    Encoder enc;
    enc.putString("hello");
    // Length prefix says 5, but only 2 payload bytes survive.
    const std::string torn = enc.bytes().substr(0, 6);
    Decoder dec(torn);
    EXPECT_THROW(dec.getString(), FatalError);
}

/** pipe(2) fixture for frame-level tests. */
class WireFrame : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ASSERT_EQ(pipe(fds), 0);
    }

    void
    TearDown() override
    {
        if (fds[0] >= 0)
            close(fds[0]);
        if (fds[1] >= 0)
            close(fds[1]);
    }

    void
    closeWrite()
    {
        close(fds[1]);
        fds[1] = -1;
    }

    int fds[2] = {-1, -1};
};

TEST_F(WireFrame, RoundTripOverPipe)
{
    Encoder enc;
    enc.putU64(31337);
    enc.putString("payload");
    ASSERT_TRUE(writeFrame(fds[1], MsgType::JobResult, enc.bytes()));

    MsgType type{};
    std::string payload;
    ASSERT_EQ(readFrame(fds[0], type, payload), ReadResult::Ok);
    EXPECT_EQ(type, MsgType::JobResult);
    Decoder dec(payload);
    EXPECT_EQ(dec.getU64(), 31337u);
    EXPECT_EQ(dec.getString(), "payload");
}

TEST_F(WireFrame, EmptyPayloadFrame)
{
    ASSERT_TRUE(writeFrame(fds[1], MsgType::Shutdown, ""));
    MsgType type{};
    std::string payload;
    ASSERT_EQ(readFrame(fds[0], type, payload), ReadResult::Ok);
    EXPECT_EQ(type, MsgType::Shutdown);
    EXPECT_TRUE(payload.empty());
}

TEST_F(WireFrame, CleanCloseBetweenFramesIsEof)
{
    closeWrite();
    MsgType type{};
    std::string payload;
    EXPECT_EQ(readFrame(fds[0], type, payload), ReadResult::Eof);
}

TEST_F(WireFrame, CloseMidFrameIsError)
{
    // A valid header promising 100 payload bytes, then death.
    Encoder enc;
    enc.putString(std::string(100, 'x'));
    std::string frame;
    {
        // Build a full frame in memory by writing to a scratch pipe.
        int scratch[2];
        ASSERT_EQ(pipe(scratch), 0);
        ASSERT_TRUE(
            writeFrame(scratch[1], MsgType::JobResult, enc.bytes()));
        char buf[4096];
        const ssize_t n = read(scratch[0], buf, sizeof(buf));
        ASSERT_GT(n, 12);
        frame.assign(buf, size_t(n));
        close(scratch[0]);
        close(scratch[1]);
    }
    // Ship the header plus half the payload, then hang up.
    ASSERT_EQ(write(fds[1], frame.data(), frame.size() / 2),
              ssize_t(frame.size() / 2));
    closeWrite();

    MsgType type{};
    std::string payload;
    setLogQuiet(true);
    EXPECT_EQ(readFrame(fds[0], type, payload), ReadResult::Error);
    setLogQuiet(false);
}

TEST_F(WireFrame, BadMagicIsError)
{
    // 12 garbage header bytes: enough for a full (wrong) header.
    const char junk[12] = {'x', 'x', 'x', 'x', 'x', 'x',
                           'x', 'x', 'x', 'x', 'x', 'x'};
    ASSERT_EQ(write(fds[1], junk, sizeof(junk)), ssize_t(sizeof(junk)));
    MsgType type{};
    std::string payload;
    setLogQuiet(true);
    EXPECT_EQ(readFrame(fds[0], type, payload), ReadResult::Error);
    setLogQuiet(false);
}

RunMetrics
sampleMetrics()
{
    RunMetrics m;
    m.model = "CMP(2x64x4)";
    m.cycles = 123456;
    m.retired = 98765;
    m.ipc = 1.75;
    m.branchMispPer1000 = 3.25;
    m.outputCorrect = true;
    m.outputBytes = 4242;
    m.removedFraction = 0.375;
    m.removedByReason = {{"branch", 17}, {"store", 3}};
    m.removedByReasonMask[0] = 11;
    m.removedByReasonMask[5] = 7;
    m.irMispPer1000 = 0.5;
    m.avgIRPenalty = 12.5;
    m.recoveries = 9;
    m.cancelled = false;
    m.hung = false;
    m.watchdogTrips = 2;
    m.degraded = true;
    m.degradedAtCycle = 555;
    m.rOnlyRetired = 333;
    m.faultOutcome.injected = true;
    m.faultOutcome.targetWasRedundant = true;
    m.faultOutcome.detected = true;
    m.faultOutcome.pc = 0x1234;
    m.faultOutcome.planned = 2;
    m.faultOutcome.numInjected = 2;
    m.faultOutcome.numDetected = 1;
    FaultRecord rec;
    rec.plan.target = FaultTarget::ARegister;
    rec.plan.dynIndex = 77;
    rec.plan.bit = 13;
    rec.plan.reg = 5;
    rec.fired = true;
    rec.injected = true;
    rec.targetWasRedundant = true;
    rec.detected = true;
    rec.pc = 0x2000;
    rec.injectCycle = 100;
    rec.detectCycle = 250;
    m.faultOutcome.records.push_back(rec);
    return m;
}

void
expectMetricsEqual(const RunMetrics &a, const RunMetrics &b)
{
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.retired, b.retired);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.branchMispPer1000, b.branchMispPer1000);
    EXPECT_EQ(a.outputCorrect, b.outputCorrect);
    EXPECT_EQ(a.outputBytes, b.outputBytes);
    EXPECT_EQ(a.removedFraction, b.removedFraction);
    EXPECT_EQ(a.removedByReason, b.removedByReason);
    EXPECT_EQ(a.removedByReasonMask, b.removedByReasonMask);
    EXPECT_EQ(a.irMispPer1000, b.irMispPer1000);
    EXPECT_EQ(a.avgIRPenalty, b.avgIRPenalty);
    EXPECT_EQ(a.recoveries, b.recoveries);
    EXPECT_EQ(a.cancelled, b.cancelled);
    EXPECT_EQ(a.hung, b.hung);
    EXPECT_EQ(a.watchdogTrips, b.watchdogTrips);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.degradedAtCycle, b.degradedAtCycle);
    EXPECT_EQ(a.rOnlyRetired, b.rOnlyRetired);
    EXPECT_EQ(a.faultOutcome.injected, b.faultOutcome.injected);
    EXPECT_EQ(a.faultOutcome.targetWasRedundant,
              b.faultOutcome.targetWasRedundant);
    EXPECT_EQ(a.faultOutcome.detected, b.faultOutcome.detected);
    EXPECT_EQ(a.faultOutcome.pc, b.faultOutcome.pc);
    EXPECT_EQ(a.faultOutcome.planned, b.faultOutcome.planned);
    EXPECT_EQ(a.faultOutcome.numInjected, b.faultOutcome.numInjected);
    EXPECT_EQ(a.faultOutcome.numDetected, b.faultOutcome.numDetected);
    ASSERT_EQ(a.faultOutcome.records.size(),
              b.faultOutcome.records.size());
    for (size_t i = 0; i < a.faultOutcome.records.size(); ++i) {
        const FaultRecord &ra = a.faultOutcome.records[i];
        const FaultRecord &rb = b.faultOutcome.records[i];
        EXPECT_EQ(ra.plan.target, rb.plan.target);
        EXPECT_EQ(ra.plan.dynIndex, rb.plan.dynIndex);
        EXPECT_EQ(ra.plan.bit, rb.plan.bit);
        EXPECT_EQ(ra.plan.reg, rb.plan.reg);
        EXPECT_EQ(ra.fired, rb.fired);
        EXPECT_EQ(ra.injected, rb.injected);
        EXPECT_EQ(ra.targetWasRedundant, rb.targetWasRedundant);
        EXPECT_EQ(ra.detected, rb.detected);
        EXPECT_EQ(ra.pc, rb.pc);
        EXPECT_EQ(ra.injectCycle, rb.injectCycle);
        EXPECT_EQ(ra.detectCycle, rb.detectCycle);
    }
}

TEST(WireCodec, RunMetricsRoundTrip)
{
    const RunMetrics m = sampleMetrics();
    const RunMetrics back = schema::decode<RunMetrics>(schema::encode(m));
    expectMetricsEqual(m, back);
}

TEST(WireCodec, JobOutcomeRoundTrip)
{
    JobOutcome o;
    o.status = JobOutcome::Status::Error;
    o.metrics = sampleMetrics();
    o.errorKind = ErrorKind::Resource;
    o.errorMessage = "allocation failed";
    o.attempts = 3;

    const JobOutcome back = schema::decode<JobOutcome>(schema::encode(o));
    EXPECT_EQ(back.status, JobOutcome::Status::Error);
    EXPECT_EQ(back.errorKind, ErrorKind::Resource);
    EXPECT_EQ(back.errorMessage, "allocation failed");
    EXPECT_EQ(back.attempts, 3u);
    // The exception_ptr never crosses the wire.
    EXPECT_EQ(back.exception, nullptr);
    expectMetricsEqual(o.metrics, back.metrics);
}

TEST(WireCodec, CrashTriageFieldsRoundTrip)
{
    JobOutcome o;
    o.status = JobOutcome::Status::Crashed;
    o.termSignal = 11;
    o.termExitCode = 0;
    o.crashAddr = 0xdeadbeef;
    o.crashPhase = TrialPhase::Run;
    o.poisoned = true;
    o.errorMessage = "worker killed by SIGSEGV";

    const JobOutcome back = schema::decode<JobOutcome>(schema::encode(o));
    EXPECT_EQ(back.status, JobOutcome::Status::Crashed);
    EXPECT_EQ(back.termSignal, 11);
    EXPECT_EQ(back.crashAddr, 0xdeadbeefu);
    EXPECT_EQ(back.crashPhase, TrialPhase::Run);
    EXPECT_TRUE(back.poisoned);
}

// ---------------------------------------------------------------------
// Pinned wire bytes. The codecs may be rewritten, but wire v3's bytes
// may not change without bumping kVersion: a supervisor and a worker
// (or slipc and slipd) built from different revisions of the same
// protocol version must still understand each other.
// ---------------------------------------------------------------------

std::string
toHex(const std::string &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    for (unsigned char c : bytes) {
        out += digits[c >> 4];
        out += digits[c & 15];
    }
    return out;
}

TEST(WireGolden, JobOutcomeBytesArePinned)
{
    JobOutcome o;
    o.status = JobOutcome::Status::Crashed;
    o.metrics = sampleMetrics();
    o.errorKind = ErrorKind::Resource;
    o.errorMessage = "oom";
    o.termSignal = 11;
    o.termExitCode = -2;
    o.crashAddr = 0xfeed;
    o.crashPhase = TrialPhase::Run;
    o.poisoned = true;
    o.attempts = 3;
    EXPECT_EQ(toHex(schema::encode(o)),
              "030b000000434d50283278363478342940e2010000000000cd810100"
              "00000000000000000000fc3f0000000000000a400192100000000000"
              "00000000000000d83f02000000060000006272616e63681100000000"
              "0000000500000073746f72650300000000000000100000000b000000"
              "00000000000000000000000000000000000000000000000000000000"
              "00000000000000000700000000000000000000000000000000000000"
              "00000000000000000000000000000000000000000000000000000000"
              "00000000000000000000000000000000000000000000000000000000"
              "000000000000000000000000000000000000e03f0000000000002940"
              "0900000000000000000002000000012b020000000000004d01000000"
              "00000000000000000000000000000000000000000000000000000000"
              "00000000000000000000000000000000000000000000000000000001"
              "0101341200000000000002000000020000000100000001000000054d"
              "000000000000000d0000000501010101002000000000000064000000"
              "00000000fa0000000000000002030000006f6f6d0b000000feffffff"
              "edfe000000000000030103000000");
}

TEST(WireGolden, BatchRequestBytesArePinned)
{
    serve::BatchRequest b;
    b.kind = serve::BatchKind::Bench;
    b.id = 77;
    b.name = "golden";
    b.workloads = {"compress", "li"};
    b.size = WorkloadSize::Small;
    b.trialsPerWorkload = 3;
    b.minFaultsPerTrial = 2;
    b.maxFaultsPerTrial = 4;
    b.seed = 12345;
    b.reliableMode = true;
    b.targets = {FaultTarget::ARegister, FaultTarget::MemoryCell};
    b.detect = {DetectBackendKind::Replay, 128, 2, 3, 32};
    b.policy = {AStreamPolicyKind::Runahead, 5, 16, 2};
    b.cycleCapPerInst = 12;
    b.seedBegin = 5;
    b.seedEnd = 9;
    EXPECT_EQ(toHex(schema::encode(b)),
              "024d0000000000000006000000676f6c64656e020000000800000063"
              "6f6d7072657373020000006c69010300000002000000040000003930"
              "00000000000001020000000506018000000000000000020000000300"
              "000020000000010500000010000000020000000c0000000000000005"
              "000000000000000900000000000000");
}

TEST(WireGolden, ServeStatsBytesArePinned)
{
    serve::ServeStats s;
    s.connections = 1;
    s.batches = 2;
    s.trialsRun = 3;
    s.trialsCached = 4;
    s.trialsRevoked = 5;
    s.cacheHits = 6;
    s.cacheMisses = 7;
    s.cacheStores = 8;
    s.cacheEvictions = 9;
    s.draining = true;
    EXPECT_EQ(toHex(schema::encode(s)),
              "01000000000000000200000000000000030000000000000004000000"
              "00000000050000000000000006000000000000000700000000000000"
              "0800000000000000090000000000000001");
}

// ---------------------------------------------------------------------
// Enums fail closed: a value at or past an enum's count is fatal,
// never a silent cast (WorkloadSize(7) used to run as `default`).
// ---------------------------------------------------------------------

template <class E>
void
expectEnumRangeChecked(unsigned count)
{
    EXPECT_EQ(schema::decode<E>(std::string(1, char(count - 1))),
              E(count - 1));
    EXPECT_THROW(schema::decode<E>(std::string(1, char(count))),
                 FatalError);
    EXPECT_THROW(schema::decode<E>(std::string(1, char(0xff))),
                 FatalError);
}

TEST(WireEnum, FaultTargetIsRangeChecked)
{
    expectEnumRangeChecked<FaultTarget>(8);
}

TEST(WireEnum, DetectBackendKindIsRangeChecked)
{
    expectEnumRangeChecked<DetectBackendKind>(3);
}

TEST(WireEnum, AStreamPolicyKindIsRangeChecked)
{
    expectEnumRangeChecked<AStreamPolicyKind>(4);
}

TEST(WireEnum, JobStatusIsRangeChecked)
{
    expectEnumRangeChecked<JobOutcome::Status>(4);
}

TEST(WireEnum, ErrorKindIsRangeChecked)
{
    expectEnumRangeChecked<ErrorKind>(4);
}

TEST(WireEnum, TrialPhaseIsRangeChecked)
{
    expectEnumRangeChecked<TrialPhase>(5);
}

TEST(WireEnum, WorkloadSizeIsRangeChecked)
{
    expectEnumRangeChecked<WorkloadSize>(3);
}

TEST(WireEnum, BatchKindIsRangeChecked)
{
    expectEnumRangeChecked<serve::BatchKind>(3);
}

TEST(WireEnum, BatchStatusIsRangeChecked)
{
    expectEnumRangeChecked<serve::BatchStatus>(4);
}

TEST(WireEnum, OutOfRangeSizeInABatchRequestNamesTheField)
{
    // A client asking for WorkloadSize(7): find the size byte by
    // encoding two requests that differ only there.
    serve::BatchRequest b;
    b.workloads = {"compress"};
    std::string bytes = schema::encode(b);
    b.size = WorkloadSize::Small;
    const std::string other = schema::encode(b);
    ASSERT_EQ(bytes.size(), other.size());
    size_t at = 0;
    while (at < bytes.size() && bytes[at] == other[at])
        ++at;
    ASSERT_LT(at, bytes.size());
    bytes[at] = 7;
    try {
        schema::decode<serve::BatchRequest>(bytes);
        ADD_FAILURE() << "WorkloadSize(7) decoded";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("'size'"), std::string::npos)
            << e.what();
    }
}

TEST(WireDecoder, TrailingBytesAreFatal)
{
    EXPECT_THROW(schema::decode<uint32_t>(std::string(5, '\0')),
                 FatalError);
}

} // namespace
} // namespace slip::wire

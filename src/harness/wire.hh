/**
 * @file
 * The versioned, length-prefixed frame protocol shared by the trial
 * supervisor / forked-worker pipes and the slipd campaign server's
 * client sockets.
 *
 * Framing: every message is
 *
 *     u32 payload length | u32 magic | u16 version | u8 type | payload
 *
 * read and written with plain read(2)/write(2) loops (EINTR-safe,
 * partial-I/O-safe). The magic and version are checked on every frame
 * — a supervisor never interprets bytes from a worker running a
 * different protocol revision; it fails loudly instead.
 *
 * Two readers exist for two trust models:
 *
 *  - readFrame(): strict — any version other than kVersion is an
 *    Error. The worker pipes use this everywhere, and the serve
 *    protocol uses it for every frame after the handshake.
 *  - readFrameInfo(): lenient on *version only* (magic and length are
 *    still enforced). Used exactly once per connection, for the
 *    Hello/HelloReject exchange, so a peer speaking a different
 *    protocol revision gets told "server speaks v2, you speak v1"
 *    instead of a silent close — version negotiation fails closed
 *    with a diagnosis, never open.
 *
 * Payloads are built with Encoder/Decoder: fixed-width little-endian
 * integers, bit-pattern doubles (exact round-trip — determinism
 * across isolation modes depends on it), and length-prefixed strings.
 * Decoder getters bounds-check and raise fatal() on truncation, so a
 * torn or corrupt payload is an error, never a silent misparse.
 *
 * Structured payloads are built from field lists (harness/schema.hh),
 * so a trial executed in a worker process reports byte-for-byte what
 * the same trial reports in-process.
 */

#ifndef SLIPSTREAM_HARNESS_WIRE_HH
#define SLIPSTREAM_HARNESS_WIRE_HH

#include <concepts>
#include <cstdint>
#include <string>

namespace slip
{

/**
 * 128-bit content key of canonical wire bytes (two independent
 * FNV-1a streams): the trial key, the result cache's address.
 */
struct TrialKey
{
    uint64_t hi = 0;
    uint64_t lo = 0;

    /** 32 lowercase hex digits. */
    std::string hex() const;

    bool operator==(const TrialKey &) const = default;
};

/** The key of arbitrary canonical bytes. */
TrialKey keyOf(const std::string &canonicalBytes);

} // namespace slip

namespace slip::wire
{

inline constexpr uint32_t kMagic = 0x53504C57; // "WLPS" on the wire
inline constexpr uint16_t kVersion = 3; // v3: A-stream policy params

/** Frame types the worker and serve protocols speak. */
enum class MsgType : uint8_t
{
    // Worker pipes (supervisor <-> forked worker).
    JobRequest = 1, // supervisor -> worker: {u64 job, u32 attempt}
    JobResult = 2,  // worker -> supervisor: {u64 job, bytes payload}
    Shutdown = 3,   // supervisor -> worker: drain and _exit(0)

    // Serve protocol (slipc <-> slipd). Types 16+ so a serve frame
    // misdelivered to a worker pipe reads as protocol confusion, not
    // as a job.
    Hello = 16,        // client -> server: {string client name}
    HelloAck = 17,     // server -> client: {u16 version, string server}
    HelloReject = 18,  // server -> client: {u16 server version,
                       //                    string reason}
    BatchRequest = 19, // client -> server: serve::BatchRequest codec
    TrialResult = 20,  // server -> client: one finished trial's JSONL
    BatchDone = 21,    // server -> client: batch summary + status
    CancelBatch = 22,  // client -> server: revoke undispatched trials
    StatsRequest = 23, // client -> server: {}
    StatsReply = 24,   // server -> client: serve::ServeStats codec
    DrainRequest = 25, // client -> server: drain + exit after reply
    DrainAck = 26,     // server -> client: drain began
};

/**
 * One frame as read leniently: the header's version rides along
 * instead of being enforced, so handshake code can diagnose a
 * revision mismatch in its error message. Magic and the length
 * sanity cap are still enforced — this is version-lenient, not
 * trust-everything.
 */
struct FrameInfo
{
    MsgType type = MsgType::Shutdown;
    uint16_t version = 0;
    std::string payload;
};

/** Append-only payload builder. */
class Encoder
{
  public:
    /** Little-endian, sizeof(T) bytes. */
    template <std::integral T>
    void
    putInt(T v)
    {
        for (size_t i = 0; i < sizeof(T); ++i)
            buf_.push_back(char(uint64_t(v) >> (8 * i)));
    }

    void putU8(uint8_t v) { putInt(v); }
    void putU16(uint16_t v) { putInt(v); }
    void putU32(uint32_t v) { putInt(v); }
    void putU64(uint64_t v) { putInt(v); }
    /** Bit pattern, not decimal text: doubles round-trip exactly. */
    void putDouble(double v);
    void putString(const std::string &s);

    const std::string &bytes() const { return buf_; }

  private:
    std::string buf_;
};

/** Bounds-checked payload reader; truncation raises fatal(). */
class Decoder
{
  public:
    explicit Decoder(const std::string &bytes) : buf_(bytes) {}

    /** Little-endian, sizeof(T) bytes. */
    template <std::integral T>
    T
    getInt()
    {
        need(sizeof(T));
        uint64_t v = 0;
        for (size_t i = 0; i < sizeof(T); ++i)
            v |= uint64_t(uint8_t(buf_[pos_++])) << (8 * i);
        return T(v);
    }

    uint8_t getU8() { return getInt<uint8_t>(); }
    uint16_t getU16() { return getInt<uint16_t>(); }
    uint32_t getU32() { return getInt<uint32_t>(); }
    uint64_t getU64() { return getInt<uint64_t>(); }
    double getDouble();
    std::string getString();

    bool atEnd() const { return pos_ == buf_.size(); }

  private:
    void need(size_t n) const;

    const std::string &buf_;
    size_t pos_ = 0;
};

/** Result of one frame read. */
enum class ReadResult : uint8_t
{
    Ok,
    Eof,   // clean close before any byte of a frame
    Error, // torn frame, bad magic/version, or an I/O error
};

/**
 * Write one frame; returns false on any write error (a dead peer —
 * the caller treats it like a crashed worker, not an exception).
 * The caller is expected to have SIGPIPE ignored.
 */
bool writeFrame(int fd, MsgType type, const std::string &payload);

/**
 * Read one frame (blocking). Eof only when the peer closed cleanly
 * between frames; a close mid-frame is Error.
 */
ReadResult readFrame(int fd, MsgType &type, std::string &payload);

/**
 * Write one frame stamping an explicit protocol version into the
 * header (tests and cross-version handshake probes; everything else
 * uses writeFrame, which stamps kVersion).
 */
bool writeFrameVersion(int fd, MsgType type, uint16_t version,
                       const std::string &payload);

/**
 * Read one frame accepting any header version (see FrameInfo).
 * Handshake use only; mid-stream frames go through readFrame.
 */
ReadResult readFrameInfo(int fd, FrameInfo &frame);

} // namespace slip::wire

#endif // SLIPSTREAM_HARNESS_WIRE_HH

#include "harness/wire.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <unistd.h>

#include "common/logging.hh"

namespace slip
{

std::string
TrialKey::hex() const
{
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(lo));
    return std::string(buf, 32);
}

TrialKey
keyOf(const std::string &canonicalBytes)
{
    // Two FNV-1a streams over the same bytes, decorrelated by a
    // different offset basis and a salted byte: 128 bits makes an
    // accidental collision over any realistic trial count (< 2^40) a
    // non-issue.
    constexpr uint64_t kOffset = 0xcbf29ce484222325ULL;
    constexpr uint64_t kPrime = 0x100000001b3ULL;
    uint64_t a = kOffset;
    uint64_t b = kOffset ^ 0x9e3779b97f4a7c15ULL;
    for (unsigned char c : canonicalBytes) {
        a = (a ^ c) * kPrime;
        b = (b ^ (c + 0x7f)) * kPrime;
    }
    return TrialKey{a, b};
}

} // namespace slip

namespace slip::wire
{

// ---------------------------------------------------------------------
// Encoder.
// ---------------------------------------------------------------------

void
Encoder::putDouble(double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(bits);
}

void
Encoder::putString(const std::string &s)
{
    putU32(uint32_t(s.size()));
    buf_.append(s);
}

// ---------------------------------------------------------------------
// Decoder.
// ---------------------------------------------------------------------

void
Decoder::need(size_t n) const
{
    if (buf_.size() - pos_ < n)
        SLIP_FATAL("wire: truncated payload (need ", n,
                   " bytes at offset ", pos_, " of ", buf_.size(), ")");
}

double
Decoder::getDouble()
{
    const uint64_t bits = getU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
Decoder::getString()
{
    const uint32_t n = getU32();
    need(n);
    std::string s = buf_.substr(pos_, n);
    pos_ += n;
    return s;
}

// ---------------------------------------------------------------------
// Frame I/O.
// ---------------------------------------------------------------------

namespace
{

bool
writeAll(int fd, const void *data, size_t len)
{
    const char *p = static_cast<const char *>(data);
    while (len > 0) {
        const ssize_t n = write(fd, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        len -= size_t(n);
    }
    return true;
}

/** 1 = full read, 0 = clean EOF before the first byte, -1 = torn. */
int
readAll(int fd, void *data, size_t len)
{
    char *p = static_cast<char *>(data);
    size_t have = 0;
    while (have < len) {
        const ssize_t n = read(fd, p + have, len - have);
        if (n > 0) {
            have += size_t(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n == 0)
            return have == 0 ? 0 : -1;
        return -1;
    }
    return 1;
}

struct FrameHeader
{
    uint32_t length; // payload bytes following the header
    uint32_t magic;
    uint16_t version;
    uint8_t type;
    uint8_t pad;
};

static_assert(sizeof(FrameHeader) == 12, "frame header is wire format");

// Frames carry one trial result at most; anything bigger than this is
// a corrupt length field, not a real message.
constexpr uint32_t kMaxFrame = 64u << 20;

} // namespace

bool
writeFrame(int fd, MsgType type, const std::string &payload)
{
    return writeFrameVersion(fd, type, kVersion, payload);
}

bool
writeFrameVersion(int fd, MsgType type, uint16_t version,
                  const std::string &payload)
{
    FrameHeader hdr;
    hdr.length = uint32_t(payload.size());
    hdr.magic = kMagic;
    hdr.version = version;
    hdr.type = uint8_t(type);
    hdr.pad = 0;
    if (!writeAll(fd, &hdr, sizeof(hdr)))
        return false;
    return payload.empty() || writeAll(fd, payload.data(), payload.size());
}

ReadResult
readFrame(int fd, MsgType &type, std::string &payload)
{
    FrameInfo frame;
    const ReadResult r = readFrameInfo(fd, frame);
    if (r != ReadResult::Ok)
        return r;
    if (frame.version != kVersion) {
        SLIP_WARN("wire: frame speaks version ", frame.version,
                  ", this side speaks ", kVersion);
        return ReadResult::Error;
    }
    type = frame.type;
    payload = std::move(frame.payload);
    return ReadResult::Ok;
}

ReadResult
readFrameInfo(int fd, FrameInfo &frame)
{
    FrameHeader hdr;
    const int got = readAll(fd, &hdr, sizeof(hdr));
    if (got == 0)
        return ReadResult::Eof;
    if (got < 0)
        return ReadResult::Error;
    // Version deliberately unchecked (the caller negotiates); a bad
    // magic or an insane length is still garbage, not a peer.
    if (hdr.magic != kMagic || hdr.length > kMaxFrame) {
        SLIP_WARN("wire: bad frame header (magic 0x", std::hex, hdr.magic,
                  std::dec, " length ", hdr.length, ")");
        return ReadResult::Error;
    }
    frame.payload.resize(hdr.length);
    if (hdr.length > 0 &&
        readAll(fd, frame.payload.data(), hdr.length) != 1)
        return ReadResult::Error;
    frame.type = MsgType(hdr.type);
    frame.version = hdr.version;
    return ReadResult::Ok;
}

} // namespace slip::wire

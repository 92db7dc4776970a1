#include "campaign/wire.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "metrics/journal.hpp"
#include "sim/check.hpp"
#include "sim/snapshot.hpp"

namespace ckesim {

namespace {

bool
validFrameType(std::uint8_t t)
{
    return t >= static_cast<std::uint8_t>(FrameType::Dispatch) &&
           t <= static_cast<std::uint8_t>(FrameType::Pong);
}

/** Largest payload either side may legitimately send; anything above
 *  is a corrupted length field, not a real frame. */
constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/**
 * Validate a complete header. Returns empty on success, else the
 * reason the stream cannot be trusted.
 */
std::string
checkHeader(const std::uint8_t *h)
{
    if (getLE<std::uint32_t>(h) != kWireMagic)
        return "bad frame magic";
    if (h[4] != kWireVersion)
        return "wire version " + std::to_string(h[4]) +
               " (this build speaks " + std::to_string(kWireVersion) +
               ")";
    if (!validFrameType(h[5]))
        return "unknown frame type " + std::to_string(h[5]);
    if (getLE<std::uint32_t>(h + 22) > kMaxFramePayload)
        return "implausible payload length";
    return "";
}

Frame
headerFrame(const std::uint8_t *h)
{
    Frame f;
    f.type = static_cast<FrameType>(h[5]);
    f.job_index = getLE<std::uint32_t>(h + 6);
    f.aux = getLE<std::uint32_t>(h + 10);
    f.key = getLE<std::uint64_t>(h + 14);
    return f;
}

} // namespace

std::vector<std::uint8_t>
encodeFrame(const Frame &frame)
{
    std::vector<std::uint8_t> bytes;
    bytes.reserve(kFrameHeaderBytes + frame.payload.size());
    putLE<std::uint32_t>(bytes, kWireMagic);
    bytes.push_back(kWireVersion);
    bytes.push_back(static_cast<std::uint8_t>(frame.type));
    putLE<std::uint32_t>(bytes, frame.job_index);
    putLE<std::uint32_t>(bytes, frame.aux);
    putLE<std::uint64_t>(bytes, frame.key);
    putLE(bytes, static_cast<std::uint32_t>(frame.payload.size()));
    putLE(bytes, crc32(frame.payload.data(), frame.payload.size()));
    bytes.insert(bytes.end(), frame.payload.begin(),
                 frame.payload.end());
    return bytes;
}

bool
writeFully(int fd, const std::uint8_t *bytes, std::size_t n)
{
    std::size_t off = 0;
    while (off < n) {
        // MSG_NOSIGNAL: a dead peer must surface as EPIPE, never as
        // a process-killing SIGPIPE.
        const ssize_t got =
            ::send(fd, bytes + off, n - off, MSG_NOSIGNAL);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                // Non-blocking sender (the orchestrator/service):
                // wait briefly for the peer to drain its buffer. A
                // peer that stays jammed past the grace window is
                // treated as gone — the caller's recovery path
                // handles it.
                struct pollfd pfd;
                pfd.fd = fd;
                pfd.events = POLLOUT;
                pfd.revents = 0;
                const int r = ::poll(&pfd, 1, 1000);
                if (r < 0 && errno == EINTR)
                    continue;
                if (r <= 0)
                    return false;
                continue;
            }
            return false;
        }
        off += static_cast<std::size_t>(got);
    }
    return true;
}

IoStatus
readFully(int fd, std::uint8_t *out, std::size_t n)
{
    std::size_t off = 0;
    // Bounded EINTR budget: a signal storm must surface as an error,
    // not livelock the read loop forever.
    int eintr_left = 1024;
    while (off < n) {
        const ssize_t got = ::read(fd, out + off, n - off);
        if (got < 0) {
            if (errno == EINTR && --eintr_left > 0)
                continue;
            return IoStatus::Error;
        }
        if (got == 0)
            return IoStatus::Eof;
        off += static_cast<std::size_t>(got);
    }
    return IoStatus::Ok;
}

bool
writeAll(int fd, const std::vector<std::uint8_t> &bytes)
{
    return writeFully(fd, bytes.data(), bytes.size());
}

bool
writeFrame(int fd, const Frame &frame)
{
    return writeAll(fd, encodeFrame(frame));
}

WireStatus
readFrameBlocking(int fd, Frame &out)
{
    // The first byte is read alone so an orderly close *between*
    // frames surfaces as Eof; a close anywhere inside a frame is a
    // torn stream and therefore Corrupt.
    std::uint8_t header[kFrameHeaderBytes];
    switch (readFully(fd, header, 1)) {
      case IoStatus::Ok:
        break;
      case IoStatus::Eof:
        return WireStatus::Eof;
      case IoStatus::Error:
        return WireStatus::Corrupt;
    }
    if (readFully(fd, header + 1, kFrameHeaderBytes - 1) !=
        IoStatus::Ok)
        return WireStatus::Corrupt;
    if (!checkHeader(header).empty())
        return WireStatus::Corrupt;
    out = headerFrame(header);
    const std::uint32_t len = getLE<std::uint32_t>(header + 22);
    const std::uint32_t crc = getLE<std::uint32_t>(header + 26);
    out.payload.assign(len, 0);
    if (len > 0 &&
        readFully(fd, out.payload.data(), len) != IoStatus::Ok)
        return WireStatus::Corrupt;
    if (crc32(out.payload.data(), out.payload.size()) != crc)
        return WireStatus::Corrupt;
    return WireStatus::Ok;
}

void
FrameParser::feed(const std::uint8_t *bytes, std::size_t n)
{
    if (corrupt_)
        return;
    buf_.insert(buf_.end(), bytes, bytes + n);
    for (;;) {
        if (buf_.size() - pos_ < kFrameHeaderBytes)
            break;
        const std::uint8_t *h = buf_.data() + pos_;
        const std::string why = checkHeader(h);
        if (!why.empty()) {
            corrupt_ = true;
            reason_ = why;
            return;
        }
        const std::uint32_t len = getLE<std::uint32_t>(h + 22);
        const std::uint32_t crc = getLE<std::uint32_t>(h + 26);
        if (buf_.size() - pos_ - kFrameHeaderBytes < len)
            break; // payload still in flight
        Frame f = headerFrame(h);
        const std::uint8_t *payload = h + kFrameHeaderBytes;
        if (crc32(payload, len) != crc) {
            corrupt_ = true;
            reason_ = "payload CRC mismatch";
            return;
        }
        f.payload.assign(payload, payload + len);
        ready_.push_back(std::move(f));
        pos_ += kFrameHeaderBytes + len;
    }
    // Reclaim the consumed prefix once it dominates the buffer.
    if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
        pos_ = 0;
    }
}

bool
FrameParser::next(Frame &out)
{
    if (ready_.empty())
        return false;
    out = std::move(ready_.front());
    ready_.pop_front();
    return true;
}

std::vector<std::uint8_t>
encodeJobError(const std::string &kind, const std::string &detail)
{
    SnapshotWriter w;
    w.section("job_error");
    w.str(kind);
    w.str(detail);
    return w.take();
}

void
decodeJobError(const std::vector<std::uint8_t> &bytes,
               std::string &kind, std::string &detail)
{
    SnapshotReader r(bytes);
    r.section("job_error");
    kind = r.str();
    detail = r.str();
    if (!r.atEnd()) {
        SimCtx ctx;
        ctx.module = "campaign.wire";
        raiseSimError("Snapshot", ctx,
                      "trailing bytes after JobError payload");
    }
}

std::vector<std::uint8_t>
encodeCampaignRef(const CampaignRef &ref)
{
    SnapshotWriter w;
    w.section("campaign_ref");
    w.str(ref.name);
    w.u64(ref.cycles);
    return w.take();
}

CampaignRef
decodeCampaignRef(const std::vector<std::uint8_t> &bytes)
{
    SnapshotReader r(bytes);
    r.section("campaign_ref");
    CampaignRef ref;
    ref.name = r.str();
    ref.cycles = r.u64();
    if (!r.atEnd()) {
        SimCtx ctx;
        ctx.module = "campaign.wire";
        raiseSimError("Snapshot", ctx,
                      "trailing bytes after CampaignRef payload");
    }
    return ref;
}

std::vector<std::uint8_t>
encodeReject(const RejectInfo &info)
{
    SnapshotWriter w;
    w.section("reject");
    w.str(info.reason);
    w.u64(info.retry_after_ms);
    return w.take();
}

RejectInfo
decodeReject(const std::vector<std::uint8_t> &bytes)
{
    SnapshotReader r(bytes);
    r.section("reject");
    RejectInfo info;
    info.reason = r.str();
    info.retry_after_ms = r.u64();
    if (!r.atEnd()) {
        SimCtx ctx;
        ctx.module = "campaign.wire";
        raiseSimError("Snapshot", ctx,
                      "trailing bytes after Reject payload");
    }
    return info;
}

} // namespace ckesim

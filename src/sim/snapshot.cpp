#include "sim/snapshot.hpp"

#define ZLIB_CONST
#include <zlib.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>

#include "sim/check.hpp"

namespace ckesim {

namespace {

/** Staging buffer size: plain bytes between deflate calls, and the
 *  slices a reader inflates and verifies at a time. */
constexpr std::size_t kStage = std::size_t{64} << 10;
constexpr std::size_t kStageSlices = kStage / kSnapshotSlice;
static_assert(kStageSlices == 4 && kStage % kSnapshotSlice == 0);

/** Reader stage room past kStage for the unread tail of a value that
 *  straddles two stages; a longer value grows the stage. */
constexpr std::size_t kStageTail = 64;

/** Slices in a plain stream of @p n bytes, the last maybe shorter. */
std::uint64_t
sliceCount(std::uint64_t n)
{
    return n / kSnapshotSlice + (n % kSnapshotSlice != 0 ? 1 : 0);
}

/** FNV-1a over a stage's four slices at @p p, each continuing from its
 *  own @p h. One FNV-1a chain waits on each multiply; four independent
 *  chains overlap their latencies. */
void
fnvStage(const std::uint8_t *p, std::uint64_t (&h)[kStageSlices])
{
    constexpr std::size_t s = kSnapshotSlice;
    std::uint64_t a = h[0], b = h[1], c = h[2], d = h[3];
    for (std::size_t i = 0; i < s; ++i) {
        a = (a ^ p[i]) * Fnv1a::kPrime;
        b = (b ^ p[s + i]) * Fnv1a::kPrime;
        c = (c ^ p[2 * s + i]) * Fnv1a::kPrime;
        d = (d ^ p[3 * s + i]) * Fnv1a::kPrime;
    }
    h[0] = a;
    h[1] = b;
    h[2] = c;
    h[3] = d;
}

[[noreturn]] void
zlibFail(const std::string &detail)
{
    SimCtx ctx;
    ctx.module = "snapshot";
    raiseSimError("Snapshot", ctx, detail);
}

} // namespace

/** One zlib stream, deflating or inflating. zlib stays in this file:
 *  no public header includes zlib.h. */
class ZStream
{
  public:
    explicit ZStream(bool deflating) : deflating_(deflating)
    {
        // Level 1: snapshots are mostly zero bytes, and level 1
        // already deflates them to about an eighth.
        const int rc = deflating ? deflateInit(&s, 1) : inflateInit(&s);
        if (rc != Z_OK)
            zlibFail("zlib stream setup failed (" + std::to_string(rc) +
                     ")");
    }
    ~ZStream() { deflating_ ? deflateEnd(&s) : inflateEnd(&s); }
    ZStream(const ZStream &) = delete;
    ZStream &operator=(const ZStream &) = delete;

    /** Point the input at @p n bytes at @p p. */
    void
    input(const std::uint8_t *p, std::size_t n)
    {
        s.next_in = p;
        s.avail_in = static_cast<uInt>(n);
    }

    /** Inflate into [@p out, @p out + @p n); returns the bytes
     *  produced and sets @p ended at the end of the stream. A
     *  corrupted or truncated stream throws SimError "Snapshot". */
    std::size_t
    inflateInto(std::uint8_t *out, std::size_t n, bool &ended)
    {
        s.next_out = out;
        s.avail_out = static_cast<uInt>(n);
        const int rc = ::inflate(&s, Z_NO_FLUSH);
        const std::size_t produced = n - s.avail_out;
        ended = rc == Z_STREAM_END;
        if (rc == Z_BUF_ERROR || (rc == Z_OK && produced == 0))
            zlibFail("truncated deflated snapshot payload");
        if (rc != Z_OK && rc != Z_STREAM_END)
            zlibFail(std::string("corrupted deflated snapshot payload (") +
                     (s.msg ? s.msg : "zlib error") + ")");
        return produced;
    }

    z_stream s{};

  private:
    bool deflating_;
};

// ---- SnapshotWriter -----------------------------------------------

SnapshotWriter::SnapshotWriter(SnapshotCodec codec)
{
    if (codec == SnapshotCodec::Deflate) {
        z_ = std::make_unique<ZStream>(/*deflating=*/true);
        buf_.reserve(kStage);
    }
}

SnapshotWriter::~SnapshotWriter() = default;

void
SnapshotWriter::raw(const void *p, std::size_t n)
{
    const auto *b = static_cast<const std::uint8_t *>(p);
    buf_.insert(buf_.end(), b, b + n);
    appended(n);
}

void
SnapshotWriter::appended(std::size_t n)
{
    const std::uint8_t *p = buf_.data() + buf_.size() - n;
    plain_size_ += n;
    while (n >= slice_left_) {
        fp_.bytes(p, slice_left_);
        p += slice_left_;
        n -= slice_left_;
        index_.push_back(fp_.value());
        slice_left_ = kSnapshotSlice;
    }
    fp_.bytes(p, n);
    slice_left_ -= n;
    if (z_ && buf_.size() >= kStage)
        drain(/*finish=*/false);
}

void
SnapshotWriter::drain(bool finish)
{
    z_stream &s = z_->s;
    z_->input(buf_.data(), buf_.size());
    int rc = Z_OK;
    do {
        const std::size_t have = out_.size();
        out_.resize(have + kStage);
        s.next_out = out_.data() + have;
        s.avail_out = static_cast<uInt>(kStage);
        rc = ::deflate(&s, finish ? Z_FINISH : Z_NO_FLUSH);
        out_.resize(have + kStage - s.avail_out);
    } while (s.avail_out == 0);
    buf_.clear();
    if (rc == Z_STREAM_ERROR || (finish && rc != Z_STREAM_END))
        zlibFail("deflating a snapshot failed (" + std::to_string(rc) +
                 ")");
}

std::vector<std::uint8_t>
SnapshotWriter::take()
{
    if (!z_)
        return std::move(buf_);
    drain(/*finish=*/true);
    out_.shrink_to_fit();
    return std::move(out_);
}

std::vector<std::uint64_t>
SnapshotWriter::takeIndex()
{
    if (slice_left_ != kSnapshotSlice)
        index_.push_back(fp_.value());
    return std::move(index_);
}

void
SnapshotWriter::tag(SnapTag t)
{
    const auto v = static_cast<std::uint8_t>(t);
    raw(&v, 1);
}

void
SnapshotWriter::u8(std::uint8_t v)
{
    tag(SnapTag::U8);
    raw(&v, 1);
}

void
SnapshotWriter::u32(std::uint32_t v)
{
    tag(SnapTag::U32);
    le(v);
}

void
SnapshotWriter::u64(std::uint64_t v)
{
    tag(SnapTag::U64);
    le(v);
}

void
SnapshotWriter::i64(std::int64_t v)
{
    tag(SnapTag::I64);
    le(static_cast<std::uint64_t>(v));
}

void
SnapshotWriter::boolean(bool v)
{
    tag(SnapTag::Bool);
    const std::uint8_t b = v ? 1 : 0;
    raw(&b, 1);
}

void
SnapshotWriter::f64(double v)
{
    // Bit pattern, never text: restore must be exact for every value
    // including -0.0, subnormals, and NaN payloads.
    tag(SnapTag::F64);
    le(std::bit_cast<std::uint64_t>(v));
}

void
SnapshotWriter::str(const std::string &v)
{
    tag(SnapTag::Str);
    le(static_cast<std::uint32_t>(v.size()));
    raw(v.data(), v.size());
}

void
SnapshotWriter::section(const char *name)
{
    tag(SnapTag::Section);
    const std::size_t n = std::strlen(name);
    le(static_cast<std::uint32_t>(n));
    raw(name, n);
}

void
SnapshotWriter::vecBool(const std::vector<bool> &v)
{
    u64(v.size());
    for (bool x : v)
        boolean(x);
}

// ---- SnapshotReader -----------------------------------------------

SnapshotReader::SnapshotReader(const std::vector<std::uint8_t> &bytes)
    : begin_(bytes.data()), cur_(bytes.data()),
      end_(bytes.data() + bytes.size()), size_(bytes.size())
{
}

SnapshotReader::SnapshotReader(const GpuSnapshot &snap)
    : size_(static_cast<std::size_t>(snap.plain_size)),
      stage_(kStage + kStageTail), index_(&snap.index)
{
    const std::uint64_t slices = sliceCount(snap.plain_size);
    if (snap.index.size() != slices)
        zlibFail("snapshot block index has " +
                 std::to_string(snap.index.size()) +
                 " entries, its recorded " +
                 std::to_string(snap.plain_size) + " bytes take " +
                 std::to_string(slices));
    if (slices != 0 && snap.index.back() != snap.fingerprint)
        zlibFail("snapshot block index does not end at its "
                 "fingerprint (corrupted checkpoint)");
    z_ = std::make_unique<ZStream>(/*deflating=*/false);
    z_->input(snap.bytes.data(), snap.bytes.size());
    begin_ = cur_ = end_ = stage_.data();
}

SnapshotReader::~SnapshotReader() = default;

void
SnapshotReader::fail(const std::string &detail) const
{
    SimCtx ctx;
    ctx.module = "snapshot";
    std::ostringstream os;
    os << detail << " at payload offset " << offset() << " of " << size_;
    raiseSimError("Snapshot", ctx, os.str());
}

void
SnapshotReader::tagMismatch(SnapTag want, std::uint8_t got) const
{
    std::ostringstream os;
    os << "type tag mismatch: expected "
       << int(static_cast<std::uint8_t>(want)) << ", found " << int(got);
    fail(os.str());
}

void
SnapshotReader::refill(std::size_t n)
{
    if (!z_ || n > size_ - offset())
        fail("truncated snapshot payload");
    const auto keep = static_cast<std::size_t>(end_ - cur_);
    base_ = offset();
    std::memmove(stage_.data(), cur_, keep);
    std::size_t have = keep;
    while (have < n) {
        if (stage_.size() < have + kStage)
            stage_.resize(have + kStage);
        have += inflateSlices(stage_.data() + have);
    }
    begin_ = cur_ = stage_.data();
    end_ = cur_ + have;
}

std::size_t
SnapshotReader::inflateSlices(std::uint8_t *out)
{
    const std::size_t want = std::min(kStage, size_ - inflated_);
    std::size_t got = 0;
    bool ended = false;
    while (got < want && !ended)
        got += z_->inflateInto(out + got, want - got, ended);
    if (got < want)
        zlibFail("deflated snapshot payload inflates to " +
                 std::to_string(inflated_ + got) + " bytes, recorded " +
                 std::to_string(size_));
    if (inflated_ + got == size_) {
        // The last slice: the stream must end here, with no input left.
        std::uint8_t past[16];
        if (!ended && z_->inflateInto(past, sizeof past, ended) != 0)
            zlibFail("deflated snapshot payload inflates past its "
                     "recorded " +
                     std::to_string(size_) + " bytes");
        if (z_->s.avail_in != 0)
            zlibFail("deflated snapshot payload has " +
                     std::to_string(z_->s.avail_in) +
                     " trailing byte(s)");
    }
    verifySlices(out, got);
    inflated_ += got;
    return got;
}

void
SnapshotReader::verifySlices(const std::uint8_t *out, std::size_t n) const
{
    // Each slice's chain starts from the entry before it, which the
    // check of the slice before confirmed, so the checks chain into
    // the whole stream's fingerprint.
    const std::vector<std::uint64_t> &index = *index_;
    const std::size_t first = inflated_ / kSnapshotSlice;
    const auto count = static_cast<std::size_t>(sliceCount(n));
    std::uint64_t h[kStageSlices] = {};
    for (std::size_t j = 0; j < count; ++j)
        h[j] = first + j == 0 ? Fnv1a::kBasis : index[first + j - 1];
    if (n == kStage) {
        fnvStage(out, h);
    } else {
        for (std::size_t j = 0; j < count; ++j) {
            const std::size_t at = j * kSnapshotSlice;
            Fnv1a fp(h[j]);
            fp.bytes(out + at, std::min(kSnapshotSlice, n - at));
            h[j] = fp.value();
        }
    }
    for (std::size_t j = 0; j < count; ++j)
        if (h[j] != index[first + j])
            zlibFail("snapshot payload does not match its fingerprint "
                     "in slice " +
                     std::to_string(first + j) + " of " +
                     std::to_string(index.size()) +
                     " (corrupted or truncated checkpoint)");
}

std::uint32_t
SnapshotReader::u32()
{
    expect(SnapTag::U32);
    return getLE<std::uint32_t>(take(4));
}

std::string
SnapshotReader::str()
{
    expect(SnapTag::Str);
    const std::size_t n = getLE<std::uint32_t>(take(4));
    return std::string(reinterpret_cast<const char *>(take(n)), n);
}

void
SnapshotReader::section(const char *name)
{
    expect(SnapTag::Section);
    const std::size_t n = getLE<std::uint32_t>(take(4));
    const auto *got = reinterpret_cast<const char *>(take(n));
    if (n != std::strlen(name) || std::memcmp(got, name, n) != 0)
        fail("section mismatch: expected '" + std::string(name) +
             "', found '" + std::string(got, n) + "'");
}

std::size_t
SnapshotReader::length(std::size_t most)
{
    const std::uint64_t n = u64();
    if (n > size_ - offset())
        fail("vector length implausibly large");
    if (n > most)
        fail("snapshot holds " + std::to_string(n) +
             " elements, at most " + std::to_string(most) + " fit");
    return static_cast<std::size_t>(n);
}

void
SnapshotReader::expectLength(std::size_t want)
{
    const std::uint64_t n = u64();
    if (n != want)
        fail("snapshot holds " + std::to_string(n) +
             " elements, this model has " + std::to_string(want));
}

std::vector<bool>
SnapshotReader::vecBool()
{
    std::vector<bool> v(length());
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = boolean();
    return v;
}

} // namespace ckesim

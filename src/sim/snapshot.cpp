#include "sim/snapshot.hpp"

#define ZLIB_CONST
#include <zlib.h>

#include <bit>
#include <cstring>
#include <sstream>

#include "sim/check.hpp"

namespace ckesim {

namespace {

/** Staging buffer size: plain bytes between deflate calls, and the
 *  inflated window a reader decodes from. */
constexpr std::size_t kStage = std::size_t{64} << 10;

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
    fp_.bytes(buf_.data() + buf_.size() - n, n);
    plain_size_ += n;
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
    : cur_(bytes.data()), end_(bytes.data() + bytes.size()),
      size_(bytes.size())
{
}

SnapshotReader::SnapshotReader(const GpuSnapshot &snap)
    : stage_(kStage)
{
    // Verification pass: plain size, zlib's own check and the FNV-1a
    // fingerprint, before any byte reaches a decoder.
    {
        ZStream z(/*deflating=*/false);
        z.input(snap.bytes.data(), snap.bytes.size());
        Fnv1a fp;
        std::uint64_t total = 0;
        bool ended = false;
        while (!ended) {
            const std::size_t got =
                z.inflateInto(stage_.data(), stage_.size(), ended);
            total += got;
            if (total > snap.plain_size)
                zlibFail("deflated snapshot payload inflates past its "
                         "recorded " +
                         std::to_string(snap.plain_size) + " bytes");
            fp.bytes(stage_.data(), got);
        }
        if (z.s.avail_in != 0 || total != snap.plain_size)
            zlibFail("deflated snapshot payload inflates to " +
                     std::to_string(total) + " bytes with " +
                     std::to_string(z.s.avail_in) +
                     " trailing, recorded " +
                     std::to_string(snap.plain_size));
        if (fp.value() != snap.fingerprint)
            zlibFail("snapshot payload does not match its fingerprint "
                     "(corrupted or truncated checkpoint)");
    }
    size_ = static_cast<std::size_t>(snap.plain_size);
    z_ = std::make_unique<ZStream>(/*deflating=*/false);
    z_->input(snap.bytes.data(), snap.bytes.size());
    cur_ = end_ = stage_.data();
}

SnapshotReader::~SnapshotReader() = default;

void
SnapshotReader::fail(const std::string &detail) const
{
    SimCtx ctx;
    ctx.module = "snapshot";
    std::ostringstream os;
    os << detail << " at payload offset " << pos_ << " of " << size_;
    raiseSimError("Snapshot", ctx, os.str());
}

void
SnapshotReader::refill(std::size_t n)
{
    if (!z_)
        fail("truncated snapshot payload");
    const auto keep = static_cast<std::size_t>(end_ - cur_);
    if (keep > 0)
        std::memmove(stage_.data(), cur_, keep);
    if (stage_.size() < n)
        stage_.resize(n);
    std::size_t have = keep;
    bool ended = false;
    while (have < n && !ended)
        have += z_->inflateInto(stage_.data() + have,
                                stage_.size() - have, ended);
    if (have < n)
        fail("truncated snapshot payload");
    cur_ = stage_.data();
    end_ = stage_.data() + have;
}

const std::uint8_t *
SnapshotReader::take(std::size_t n)
{
    if (n > size_ - pos_)
        fail("truncated snapshot payload");
    if (n > static_cast<std::size_t>(end_ - cur_))
        refill(n);
    const std::uint8_t *p = cur_;
    cur_ += n;
    pos_ += n;
    return p;
}

void
SnapshotReader::expect(SnapTag t)
{
    const std::uint8_t got = *take(1);
    if (got != static_cast<std::uint8_t>(t)) {
        std::ostringstream os;
        os << "type tag mismatch: expected " << int(static_cast<std::uint8_t>(t))
           << ", found " << int(got);
        fail(os.str());
    }
}

std::uint8_t
SnapshotReader::u8()
{
    expect(SnapTag::U8);
    return *take(1);
}

std::uint32_t
SnapshotReader::u32()
{
    expect(SnapTag::U32);
    return getLE<std::uint32_t>(take(4));
}

std::uint64_t
SnapshotReader::u64()
{
    expect(SnapTag::U64);
    return getLE<std::uint64_t>(take(8));
}

std::int64_t
SnapshotReader::i64()
{
    expect(SnapTag::I64);
    return static_cast<std::int64_t>(getLE<std::uint64_t>(take(8)));
}

bool
SnapshotReader::boolean()
{
    expect(SnapTag::Bool);
    const std::uint8_t v = *take(1);
    if (v > 1)
        fail("bool value out of range");
    return v != 0;
}

double
SnapshotReader::f64()
{
    expect(SnapTag::F64);
    return std::bit_cast<double>(getLE<std::uint64_t>(take(8)));
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
    const std::string got(reinterpret_cast<const char *>(take(n)), n);
    if (got != name)
        fail("section mismatch: expected '" + std::string(name) +
             "', found '" + got + "'");
}

std::size_t
SnapshotReader::length(std::size_t most)
{
    const std::uint64_t n = u64();
    if (n > size_ - pos_)
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

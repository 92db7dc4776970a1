#include "sim/snapshot.hpp"

#include <bit>
#include <cstring>
#include <sstream>

#include "sim/check.hpp"

namespace ckesim {

// ---- SnapshotWriter -----------------------------------------------

void
SnapshotWriter::raw(const void *p, std::size_t n)
{
    const auto *b = static_cast<const std::uint8_t *>(p);
    buf_.insert(buf_.end(), b, b + n);
    fp_.bytes(b, n);
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
SnapshotWriter::le(std::uint64_t v, std::size_t n)
{
    std::uint8_t b[8];
    for (std::size_t i = 0; i < n; ++i)
        b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    raw(b, n);
}

void
SnapshotWriter::u32(std::uint32_t v)
{
    tag(SnapTag::U32);
    le(v, 4);
}

void
SnapshotWriter::u64(std::uint64_t v)
{
    tag(SnapTag::U64);
    le(v, 8);
}

void
SnapshotWriter::i64(std::int64_t v)
{
    tag(SnapTag::I64);
    le(static_cast<std::uint64_t>(v), 8);
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
    le(std::bit_cast<std::uint64_t>(v), 8);
}

void
SnapshotWriter::str(const std::string &v)
{
    tag(SnapTag::Str);
    le(v.size(), 4);
    raw(v.data(), v.size());
}

void
SnapshotWriter::section(const char *name)
{
    tag(SnapTag::Section);
    const std::size_t n = std::strlen(name);
    le(n, 4);
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

void
SnapshotReader::fail(const std::string &detail) const
{
    SimCtx ctx;
    ctx.module = "snapshot";
    std::ostringstream os;
    os << detail << " at payload offset " << pos_ << " of "
       << bytes_->size();
    raiseSimError("Snapshot", ctx, os.str());
}

const std::uint8_t *
SnapshotReader::take(std::size_t n)
{
    if (pos_ + n > bytes_->size())
        fail("truncated snapshot payload");
    const std::uint8_t *p = bytes_->data() + pos_;
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

std::uint64_t
SnapshotReader::le(std::size_t n)
{
    const std::uint8_t *b = take(n);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i)
        v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
}

std::uint32_t
SnapshotReader::u32()
{
    expect(SnapTag::U32);
    return static_cast<std::uint32_t>(le(4));
}

std::uint64_t
SnapshotReader::u64()
{
    expect(SnapTag::U64);
    return le(8);
}

std::int64_t
SnapshotReader::i64()
{
    expect(SnapTag::I64);
    return static_cast<std::int64_t>(le(8));
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
    return std::bit_cast<double>(le(8));
}

std::string
SnapshotReader::str()
{
    expect(SnapTag::Str);
    const auto n = static_cast<std::size_t>(le(4));
    return std::string(reinterpret_cast<const char *>(take(n)), n);
}

void
SnapshotReader::section(const char *name)
{
    expect(SnapTag::Section);
    const auto n = static_cast<std::size_t>(le(4));
    const std::string got(reinterpret_cast<const char *>(take(n)), n);
    if (got != name)
        fail("section mismatch: expected '" + std::string(name) +
             "', found '" + got + "'");
}

std::size_t
SnapshotReader::length()
{
    const std::uint64_t n = u64();
    if (n > bytes_->size() - pos_)
        fail("vector length implausibly large");
    return static_cast<std::size_t>(n);
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

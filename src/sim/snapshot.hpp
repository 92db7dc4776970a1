/**
 * @file
 * Versioned, deterministic binary codec for GPU state checkpoints.
 *
 * A checkpoint must satisfy two properties that ordinary serialization
 * does not guarantee: (1) restore(snapshot(t)) followed by run must be
 * bit-identical to the uninterrupted run — so every byte written is a
 * pure function of simulator state, never of host iteration order or
 * wall time; and (2) a corrupted or version-skewed blob must fail
 * loudly at decode time, never produce a silently wrong simulation.
 *
 * The encoding is a flat tagged stream: every value is prefixed with a
 * one-byte type tag, and components bracket their state in named
 * sections. A reader that drifts out of alignment (a stream from
 * another layout, a truncated file) hits a tag or section-name mismatch
 * within a few bytes and throws a SimError of kind "Snapshot" with the
 * offset. The writer maintains a running FNV-1a fingerprint over the
 * payload; two checkpoints are equal iff their fingerprints are.
 *
 * Each checkpointed component lists its members once, in a state
 * walk: `template <class Ar, ObjectOf<C> Self> static void
 * state(Ar &ar, Self &self)`. The two codec classes are its archives.
 * A SnapshotWriter (Self const) writes each value the walk visits,
 * and a SnapshotReader (Self mutable) assigns it, so one body serves
 * both directions and a member cannot reach one side only. Every
 * visit names its wire type (`ar.u64(x)`, `ar.id(k)`, `ar.fields(s)`
 * for a field-tabled struct). Work that only a restore needs runs
 * under `if constexpr (Ar::kLoading)`, at the end of the walk.
 *
 * Journal records and wire frames use the plain stream. A GpuSnapshot
 * holds its stream deflated: the writer passes it through a small
 * staging buffer into zlib, and the reader inflates it the same way,
 * so the plain stream (~4.65 MB for a 16-SM machine) is never held
 * whole. The fingerprint is always over the plain stream.
 *
 * Format rules (see DESIGN.md section 11):
 *  - kSnapshotFormatVersion (sim/types.hpp) must be bumped on any
 *    change to what is serialized or how; there is no migration.
 *  - unordered containers are serialized in sorted key order;
 *  - doubles are serialized by bit pattern, never formatted;
 *  - pointers are never serialized — restore re-binds them from the
 *    reconstructed object graph.
 */

#ifndef CKESIM_SIM_SNAPSHOT_HPP
#define CKESIM_SIM_SNAPSHOT_HPP

#include <concepts>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/fields.hpp"
#include "sim/types.hpp"

namespace ckesim {

/** Wire type tags. One byte before every encoded value. */
enum class SnapTag : std::uint8_t {
    U8 = 1,
    U32 = 2,
    U64 = 3,
    I64 = 4,
    Bool = 5,
    F64 = 6,
    Str = 7,
    Section = 8,
};

struct GpuSnapshot;
class ZStream;

/** Append @p v to @p out, little-endian: the byte order of snapshot,
 *  journal and wire encodings. */
template <std::unsigned_integral U>
void
putLE(std::vector<std::uint8_t> &out, U v)
{
    std::uint8_t b[sizeof(U)];
    for (std::size_t i = 0; i < sizeof(U); ++i)
        b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    out.insert(out.end(), b, b + sizeof(U));
}

/** The little-endian @p U at @p p (inverse of putLE). */
template <std::unsigned_integral U>
U
getLE(const std::uint8_t *p)
{
    U v = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i)
        v |= static_cast<U>(p[i]) << (8 * i);
    return v;
}

/** "No bound" for a content-sized count (SnapshotReader::length). */
inline constexpr std::size_t kAnyLength =
    std::numeric_limits<std::size_t>::max();

/**
 * @p x, const when @p Self is. A state walk reaches the components
 * it owns through pointers with it, so the save side stays const.
 */
template <class Self, class T>
constexpr auto &
likeSelf(T &x)
{
    if constexpr (std::is_const_v<Self>)
        return std::as_const(x);
    else
        return x;
}

/** How a SnapshotWriter stores what it encodes. */
enum class SnapshotCodec {
    Plain,   ///< bytes() is the stream itself
    Deflate, ///< zlib level 1 through a staging buffer (GpuSnapshot)
};

/**
 * Append-only typed encoder with a running content fingerprint.
 * All append operations are deterministic functions of their
 * arguments; the resulting byte vector is the checkpoint payload.
 */
class SnapshotWriter
{
  public:
    /** State walks read the members they visit. */
    static constexpr bool kLoading = false;

    explicit SnapshotWriter(SnapshotCodec codec = SnapshotCodec::Plain);
    ~SnapshotWriter();
    SnapshotWriter(const SnapshotWriter &) = delete;
    SnapshotWriter &operator=(const SnapshotWriter &) = delete;

    void u8(std::uint8_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v);
    void boolean(bool v);
    void f64(double v);
    void str(const std::string &v);

    /** Enum: serialized as its u8 value. */
    template <class E>
        requires std::is_enum_v<E>
    void
    u8(E e)
    {
        u8(static_cast<std::uint8_t>(e));
    }

    /** Named section marker; the reader must ask for the same name. */
    void section(const char *name);

    /** Strong id: serialized as its signed raw value. */
    template <class Tag, class Rep>
    void
    id(StrongId<Tag, Rep> v)
    {
        i64(static_cast<std::int64_t>(v.get()));
    }

    /** Strong unit: serialized as its unsigned raw value. */
    template <class Tag, class Rep>
    void
    unit(StrongUnit<Tag, Rep> v)
    {
        u64(static_cast<std::uint64_t>(v.get()));
    }

    /** Length-prefixed vector<bool> (bypass masks). */
    void vecBool(const std::vector<bool> &v);

    /** A value with a field table, encoded as FieldWriter does. */
    template <class M>
    void
    fields(const M &m)
    {
        FieldWriter(*this).put(m);
    }

    /** Count of a container sized at construction; the reader
     *  requires the same count. */
    template <class C>
    void
    fixedLength(const C &c)
    {
        u64(c.size());
    }

    /** Count of a container sized by its content; the reader resizes
     *  to it and refuses more than the bound. */
    template <class C>
    void
    length(const C &c, std::size_t = kAnyLength)
    {
        u64(c.size());
    }

    /** FNV-1a over every plain byte appended so far. */
    std::uint64_t fingerprint() const { return fp_.value(); }

    /** Plain bytes appended so far. */
    std::uint64_t plainSize() const { return plain_size_; }

    /** The plain stream (Plain codec only). */
    const std::vector<std::uint8_t> &bytes() const { return buf_; }

    /** The payload: the plain stream, or the finished deflate stream. */
    std::vector<std::uint8_t> take();

  private:
    void tag(SnapTag t);
    void raw(const void *p, std::size_t n);

    /** Append @p v little-endian. */
    template <std::unsigned_integral U>
    void
    le(U v)
    {
        putLE(buf_, v);
        appended(sizeof(U));
    }

    /** Fingerprint and count the last @p n bytes of buf_. */
    void appended(std::size_t n);
    /** Deflate the staged bytes into out_ (@p finish ends the stream). */
    void drain(bool finish);

    std::vector<std::uint8_t> buf_; ///< plain stream, or the staging buffer
    std::vector<std::uint8_t> out_; ///< deflated payload so far
    std::unique_ptr<ZStream> z_;    ///< null for the Plain codec
    std::uint64_t plain_size_ = 0;
    Fnv1a fp_;
};

/**
 * Strict decoder for SnapshotWriter streams. Every read validates the
 * type tag (and, for sections, the name) before consuming the value;
 * any mismatch or truncation throws SimError kind "Snapshot".
 */
class SnapshotReader
{
  public:
    /** State walks assign the members they visit. */
    static constexpr bool kLoading = true;

    /** Reader over a plain stream. */
    explicit SnapshotReader(const std::vector<std::uint8_t> &bytes);

    /**
     * Reader over a GpuSnapshot's deflated payload. Construction
     * first streams the whole payload through inflate and FNV-1a,
     * holding only a staging buffer, and throws SimError kind
     * "Snapshot" unless it inflates to exactly `plain_size` bytes
     * with the recorded fingerprint. Decoding then inflates it again,
     * so no decoder ever sees a corrupted byte.
     */
    explicit SnapshotReader(const GpuSnapshot &snap);

    ~SnapshotReader();
    SnapshotReader(const SnapshotReader &) = delete;
    SnapshotReader &operator=(const SnapshotReader &) = delete;

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64();
    bool boolean();
    double f64();
    std::string str();

    // The same reads, assigned through a reference: what a state walk
    // calls where the writer takes the value.
    template <std::integral I>
    void
    u64(I &x)
    {
        x = static_cast<I>(u64());
    }

    template <std::integral I>
    void
    i64(I &n)
    {
        n = static_cast<I>(i64());
    }

    void boolean(bool &b) { b = boolean(); }
    void f64(double &d) { d = f64(); }

    template <class E>
        requires std::is_enum_v<E>
    void
    u8(E &e)
    {
        e = static_cast<E>(u8());
    }

    /** Consume a section marker; @p name must match what was written. */
    void section(const char *name);

    template <class IdT>
    IdT
    id()
    {
        return IdT(static_cast<typename IdT::rep_type>(i64()));
    }

    template <class Tag, class Rep>
    void
    id(StrongId<Tag, Rep> &k)
    {
        k = id<StrongId<Tag, Rep>>();
    }

    template <class UnitT>
    UnitT
    unit()
    {
        return UnitT(static_cast<typename UnitT::rep_type>(u64()));
    }

    template <class Tag, class Rep>
    void
    unit(StrongUnit<Tag, Rep> &c)
    {
        c = unit<StrongUnit<Tag, Rep>>();
    }

    std::vector<bool> vecBool();
    void vecBool(std::vector<bool> &v) { v = vecBool(); }

    /** Reads what SnapshotWriter::fields wrote (defined below). */
    template <class M>
    void fields(M &m);

    /** A u64 element count, rejected when the rest of the plain
     *  payload cannot hold that many elements (each takes >= 1 byte)
     *  or when it exceeds @p most. */
    std::size_t length(std::size_t most = kAnyLength);

    /** SnapshotWriter::fixedLength: the count must equal c.size(). */
    template <class C>
    void
    fixedLength(const C &c)
    {
        expectLength(c.size());
    }

    /** SnapshotWriter::length: @p c becomes that many
     *  value-initialized elements, for the walk to fill in. */
    template <class C>
    void
    length(C &c, std::size_t most = kAnyLength)
    {
        const std::size_t n = length(most);
        c.clear();
        c.resize(n);
    }

    /** Entire plain payload consumed? restore() asserts this at the
     *  end. */
    bool atEnd() const { return pos_ == size_; }

    /** Plain bytes consumed so far. */
    std::size_t offset() const { return pos_; }

  private:
    void expect(SnapTag t);
    const std::uint8_t *take(std::size_t n);
    /** Inflate until at least @p n bytes are staged at cur_. */
    void refill(std::size_t n);
    /** A u64 count that must equal @p want. */
    void expectLength(std::size_t want);
    [[noreturn]] void fail(const std::string &detail) const;

    const std::uint8_t *cur_ = nullptr; ///< next unread plain byte
    const std::uint8_t *end_ = nullptr; ///< end of the readable window
    std::size_t pos_ = 0;               ///< plain offset of cur_
    std::size_t size_ = 0;              ///< plain payload length
    std::vector<std::uint8_t> stage_;   ///< inflated window
    std::unique_ptr<ZStream> z_;        ///< null for a plain stream
};

/** Reads what FieldWriter<SnapshotWriter> wrote (sim/fields.hpp). */
class FieldReader
{
  public:
    explicit FieldReader(SnapshotReader &r) : r_(r) {}

    template <class M>
    void
    operator()(const Field &, M &m)
    {
        get(m);
    }

    template <class M>
    void
    get(M &m)
    {
        if constexpr (HasFields<M>) {
            fields(*this, m);
        } else if constexpr (std::is_same_v<M, std::string>) {
            m = r_.str();
        } else if constexpr (std::is_same_v<M, double>) {
            m = r_.f64();
        } else if constexpr (std::is_same_v<M, std::uint64_t>) {
            m = r_.u64();
        } else if constexpr (std::is_integral_v<M> || std::is_enum_v<M>) {
            m = static_cast<M>(r_.i64());
        } else if constexpr (requires { m.get(); }) {
            m = r_.unit<M>();
        } else if constexpr (TupleLike<M>) {
            std::apply([this](auto &...e) { (get(e), ...); }, m);
        } else {
            m = M(r_.length());
            for (auto &e : m)
                get(e);
        }
    }

  private:
    SnapshotReader &r_;
};

template <class M>
void
SnapshotReader::fields(M &m)
{
    FieldReader(*this).get(m);
}

/**
 * A complete GPU checkpoint: the versioned payload plus enough
 * metadata to refuse restoration into the wrong simulation.
 */
struct GpuSnapshot
{
    /** Format version at capture time (= kSnapshotFormatVersion). */
    std::uint32_t version = 0;
    /** Simulated time at capture. */
    Cycle cycle{};
    /** FNV-1a fingerprint of the plain stream @ref bytes inflates to. */
    std::uint64_t fingerprint = 0;
    /** Config pin: hash of the owning simulation's GpuConfig fields
     *  (the same set SimJob::key() covers). */
    std::uint64_t config_digest = 0;
    /** Setup pin: field-table hash of the kernel profiles, in order,
     *  and the SchemeSpec (setupDigest in gpu.hpp). */
    std::uint64_t setup_digest = 0;
    /** The same hash over the spec's prefix class (prefixClass in
     *  gpu.hpp): what Gpu::restorePrefix compares. */
    std::uint64_t prefix_digest = 0;
    /** Length of the plain stream. */
    std::uint64_t plain_size = 0;
    /** The encoded state, deflated (zlib). */
    std::vector<std::uint8_t> bytes;
};

} // namespace ckesim

#endif // CKESIM_SIM_SNAPSHOT_HPP

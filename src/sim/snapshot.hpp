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
 * sections. A reader that drifts out of alignment (a field added on
 * one side only, a truncated file) hits a tag or section-name mismatch
 * within a few bytes and throws a SimError of kind "Snapshot" with the
 * offset. The writer maintains a running FNV-1a fingerprint over the
 * payload; two checkpoints are equal iff their fingerprints are.
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

#include <cstdint>
#include <cstring>
#include <string>
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

/**
 * Append-only typed encoder with a running content fingerprint.
 * All append operations are deterministic functions of their
 * arguments; the resulting byte vector is the checkpoint payload.
 */
class SnapshotWriter
{
  public:
    SnapshotWriter() = default;

    void u8(std::uint8_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v);
    void boolean(bool v);
    void f64(double v);
    void str(const std::string &v);

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

    /** FNV-1a over every byte appended so far. */
    std::uint64_t fingerprint() const { return fp_.value(); }

    const std::vector<std::uint8_t> &bytes() const { return buf_; }

    std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    void tag(SnapTag t);
    void raw(const void *p, std::size_t n);
    /** The low @p n bytes of @p v, little-endian. */
    void le(std::uint64_t v, std::size_t n);

    std::vector<std::uint8_t> buf_;
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
    explicit SnapshotReader(const std::vector<std::uint8_t> &bytes)
        : bytes_(&bytes)
    {
    }

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64();
    bool boolean();
    double f64();
    std::string str();

    /** Consume a section marker; @p name must match what was written. */
    void section(const char *name);

    template <class IdT>
    IdT
    id()
    {
        return IdT(static_cast<typename IdT::rep_type>(i64()));
    }

    template <class UnitT>
    UnitT
    unit()
    {
        return UnitT(static_cast<typename UnitT::rep_type>(u64()));
    }

    std::vector<bool> vecBool();

    /** A u64 element count, rejected when the rest of the payload
     *  cannot hold that many elements (each takes >= 1 byte). */
    std::size_t length();

    /** Entire payload consumed? restore() asserts this at the end. */
    bool atEnd() const { return pos_ == bytes_->size(); }

    std::size_t offset() const { return pos_; }

  private:
    void expect(SnapTag t);
    const std::uint8_t *take(std::size_t n);
    /** Inverse of SnapshotWriter::le. */
    std::uint64_t le(std::size_t n);
    [[noreturn]] void fail(const std::string &detail) const;

    const std::vector<std::uint8_t> *bytes_;
    std::size_t pos_ = 0;
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
    /** FNV-1a fingerprint of @ref bytes. */
    std::uint64_t fingerprint = 0;
    /** Config pin: hash of the owning simulation's GpuConfig fields
     *  (the same set SimJob::key() covers). */
    std::uint64_t config_digest = 0;
    /** The encoded state. */
    std::vector<std::uint8_t> bytes;
};

} // namespace ckesim

#endif // CKESIM_SIM_SNAPSHOT_HPP

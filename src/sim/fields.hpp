/**
 * @file
 * Field tables: one member list per struct, walked by job keys, the
 * snapshot config pin, stats sums and fingerprints, the results codec
 * and config validation. A table is a
 * `template <class V, ObjectOf<T>... S> fields(V &v, S &...s)`
 * overload next to its struct: it calls `v(Field{...}, s.member...)`
 * once per member, in hash and serialization order, for one or more
 * objects walked together, and a `static_assert(tableCovers<T>())`
 * fails the build when it skips a member.
 */

#ifndef CKESIM_SIM_FIELDS_HPP
#define CKESIM_SIM_FIELDS_HPP

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <type_traits>

namespace ckesim {

/** "No lower bound" for Field::min. */
inline constexpr int kNoMin = std::numeric_limits<int>::min();

/** What a table says about one member besides its value. */
struct Field
{
    const char *name = "";
    /** Lower bound GpuConfig::validate() enforces on an int member. */
    int min = kNoMin;
};

/** @p S is a (const) @p T: constrains the objects a table walks. */
template <class S, class T>
concept ObjectOf = std::is_same_v<std::remove_const_t<S>, T>;

/** Visitor that counts table entries (usable in constant expressions). */
struct FieldCounter
{
    int n = 0;

    template <class... M>
    constexpr void
    operator()(const Field &, M &...)
    {
        ++n;
    }
};

/** @p T has a field table. */
template <class T>
concept HasFields = requires(FieldCounter &c, T &t) { fields(c, t); };

/** std::array and std::pair: walked element-wise, no length. */
template <class T>
concept TupleLike = requires { std::tuple_size<T>::value; };

namespace detail {
/** Converts to any member type (unevaluated use only). */
struct AnyMember
{
    template <class U>
    constexpr operator U() const;
};
} // namespace detail

/** Members of aggregate @p T: the most initializers T{...} accepts. */
template <class T, class... A>
constexpr int
aggregateArity()
{
    if constexpr (requires { T{A{}..., detail::AnyMember{}}; })
        return aggregateArity<T, A..., detail::AnyMember>();
    else
        return static_cast<int>(sizeof...(A));
}

/** @p T's table visits every member of the aggregate. */
template <class T>
constexpr bool
tableCovers()
{
    T t{};
    FieldCounter c;
    fields(c, t);
    return c.n == aggregateArity<T>();
}

/**
 * FNV-1a (64-bit) accumulator: the one hash behind job keys, stats
 * fingerprints, snapshot fingerprints and the snapshot config pin.
 * The seed lets fingerprints chain. As a FieldWriter sink every
 * scalar is eight little-endian bytes (doubles by bit pattern) and a
 * string is its length, then its bytes.
 */
class Fnv1a
{
  public:
    static constexpr std::uint64_t kBasis = 0xcbf29ce484222325ULL;
    static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

    constexpr explicit Fnv1a(std::uint64_t seed = kBasis) : h_(seed) {}

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const std::uint8_t *>(p);
        for (std::size_t i = 0; i < n; ++i)
            h_ = (h_ ^ b[i]) * kPrime;
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * kPrime;
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void
    str(const std::string &v)
    {
        u64(v.size());
        bytes(v.data(), v.size());
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_;
};

/**
 * Walks values through their tables into a sink with SnapshotWriter's
 * scalar interface (SnapshotWriter, Fnv1a): uint64 and units as u64,
 * other integers, bools and enums as i64, vectors length first,
 * arrays and pairs element-wise.
 */
template <class Sink>
class FieldWriter
{
  public:
    explicit FieldWriter(Sink &sink) : sink_(sink) {}

    template <class M>
    void
    operator()(const Field &, const M &m)
    {
        put(m);
    }

    template <class M>
    void
    put(const M &m)
    {
        if constexpr (HasFields<const M>) {
            fields(*this, m);
        } else if constexpr (std::is_same_v<M, std::string>) {
            sink_.str(m);
        } else if constexpr (std::is_same_v<M, double>) {
            sink_.f64(m);
        } else if constexpr (std::is_same_v<M, std::uint64_t>) {
            sink_.u64(m);
        } else if constexpr (std::is_integral_v<M> || std::is_enum_v<M>) {
            sink_.i64(static_cast<std::int64_t>(m));
        } else if constexpr (requires { m.get(); }) {
            sink_.u64(static_cast<std::uint64_t>(m.get()));
        } else if constexpr (TupleLike<M>) {
            std::apply([this](const auto &...e) { (put(e), ...); }, m);
        } else {
            sink_.u64(m.size());
            for (const auto &e : m)
                put(e);
        }
    }

  private:
    Sink &sink_;
};

/** Hash of one value's fields. */
template <class T>
std::uint64_t
fieldHash(const T &value, std::uint64_t seed = Fnv1a::kBasis)
{
    Fnv1a h(seed);
    FieldWriter(h).put(value);
    return h.value();
}

} // namespace ckesim

#endif // CKESIM_SIM_FIELDS_HPP

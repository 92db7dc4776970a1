/**
 * @file
 * Negative-compilation probes for the strong types and the field
 * tables: each CKESIM_CF_* macro selects one ill-formed snippet that
 * MUST fail to compile.
 * CMake builds one target per macro, excluded from ALL, and ctest
 * asserts the build fails (WILL_FAIL). With no macro defined this
 * file is a well-formed control that must compile — it proves a
 * probe's failure comes from the type system, not a broken harness.
 */

#include "mem/address.hpp"
#include "sim/fields.hpp"
#include "sim/types.hpp"

namespace ckesim {

struct TwoFields
{
    int a = 0;
    double b = 0.0;
};

template <class V, ObjectOf<TwoFields>... S>
constexpr void
fields(V &v, S &...s)
{
    v(Field{"a"}, s.a...);
#if !defined(CKESIM_CF_UNVISITED_FIELD)
    // A table that skips a member trips its completeness check.
    v(Field{"b"}, s.b...);
#endif
}
static_assert(tableCovers<TwoFields>());

// A signature mirroring L1Dcache::access / IssueController calls.
inline int
chargeAccess(KernelId kernel, WarpSlot slot)
{
    return kernel.get() + slot.get();
}

inline Addr
firstByte(LineAddr line)
{
    return lineByteBase(line, 128);
}

inline int
probe()
{
    const KernelId k{1};
    const WarpSlot w{3};
    const Addr byte_addr{0x1000};
    const LineAddr line{32};
    const Cycle now{100};

#if defined(CKESIM_CF_SWAP_KERNEL_WARP)
    // Argument swap: a WarpSlot is not a KernelId and vice versa.
    return chargeAccess(w, k);
#elif defined(CKESIM_CF_BYTE_AS_LINE)
    // A byte address must pass through toLineAddr first.
    return static_cast<int>(firstByte(byte_addr).get());
#elif defined(CKESIM_CF_LINE_AS_BYTE)
    // A line number is not a byte address.
    return static_cast<int>(toLineAddr(line, 128).get());
#elif defined(CKESIM_CF_CROSS_UNIT_ARITH)
    // Cycles and addresses have different dimensions.
    return static_cast<int>((now + byte_addr).get());
#elif defined(CKESIM_CF_IMPLICIT_FROM_INT)
    // Construction from a raw int must be explicit.
    const KernelId implicit_kernel = 2;
    return implicit_kernel.get();
#elif defined(CKESIM_CF_COMPARE_WITH_INT)
    // No heterogeneous comparisons: write now > Cycle{0}.
    return now > 0 ? 1 : 0;
#else
    // Control build: the same values used correctly.
    return chargeAccess(k, w) +
           static_cast<int>(firstByte(line).get()) +
           static_cast<int>((now + Cycle{1}).get());
#endif
}

} // namespace ckesim

int
main()
{
    return ckesim::probe() == 0 ? 1 : 0;
}

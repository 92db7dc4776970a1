/**
 * @file
 * Procedural global-memory address generation for synthetic kernels.
 *
 * Each warp owns an AddrGenState seeded deterministically from
 * (kernel instance, TB sequence number, warp index). A call to
 * generateAccess() emits one warp memory instruction's coalesced line
 * transactions: the profile's `Req/Minst` lines, with temporal
 * locality controlled by `reuse_prob` over a recently-touched-line
 * ring. The warp's threads split the lines into contiguous blocks and
 * each thread's bytes stay inside its line, so coalescing the
 * per-thread addresses would give back exactly these lines; the
 * generator emits them directly (DESIGN.md §14.6).
 */

#ifndef CKESIM_KERNELS_ADDRGEN_HPP
#define CKESIM_KERNELS_ADDRGEN_HPP

#include <array>
#include <vector>

#include "kernels/profile.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace ckesim {

/** Per-warp address-stream state. */
struct AddrGenState
{
    /** Recently touched lines (reuse candidates). Sized to cover a
     *  high-MLP kernel's whole in-flight burst plus the lookback
     *  window behind it. */
    static constexpr int kRingSize = 192;

    Rng rng{1};
    /** Raw line-number state: the generator computes line numbers and
     *  only mints byte Addrs at its output boundary. */
    std::uint64_t stream_cursor = 0; ///< next streaming step
    std::uint64_t stream_base_line = 0;  ///< per-TB region base
    std::uint64_t stream_region_lines = 0;
    std::uint64_t stream_stride = 1; ///< warps per TB (interleave)
    std::uint64_t stream_offset = 0; ///< warp index within the TB
    std::uint64_t footprint_base_line = 0; ///< per-TB footprint base
    std::uint64_t footprint_lines = 1;
    std::array<std::uint64_t, kRingSize> ring{};
    int ring_count = 0;
    int ring_pos = 0;
};

/**
 * Seed a warp's address stream.
 *
 * @param kernel kernel's slot in the workload (address isolation)
 * @param tb_seq global sequence number of the warp's thread block
 * @param warp_in_tb warp index within the TB
 * @param warps_per_tb warps in the TB (streaming interleave factor:
 *        a TB's warps jointly stream one contiguous region, which is
 *        what gives coalesced kernels their DRAM row locality)
 */
void initAddrGen(AddrGenState &st, const KernelProfile &prof,
                 KernelId kernel, std::uint64_t tb_seq, int warp_in_tb,
                 int warps_per_tb, std::uint64_t seed, int line_bytes);

/**
 * Emit one memory instruction's coalesced line requests into @p lines
 * (cleared first), in first-touch order: min(prof.req_per_minst,
 * simd_width) lines, fewer only when a reuse draw repeats a line.
 */
void generateAccess(AddrGenState &st, const KernelProfile &prof,
                    int simd_width, std::vector<LineAddr> &lines);

} // namespace ckesim

#endif // CKESIM_KERNELS_ADDRGEN_HPP

/**
 * @file
 * Synthetic kernel profiles standing in for the paper's 13 CUDA
 * benchmarks (Table 2: cp, hs, dc, pf, bp, bs, st, 3m, sv, cd, s2, ks,
 * ax).
 *
 * Each profile fixes (a) static per-TB resource demands chosen so that
 * isolated occupancy lands on Table 2's RF/SMEM/Thread/TB occupancies,
 * and (b) a dynamic behaviour model — compute-per-memory instruction
 * ratio (`Cinst/Minst`), coalesced requests per memory instruction
 * (`Req/Minst`), and an address pattern whose locality produces the
 * same L1D miss-rate / reservation-failure regime as the real kernel.
 */

#ifndef CKESIM_KERNELS_PROFILE_HPP
#define CKESIM_KERNELS_PROFILE_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/config.hpp"
#include "sim/fields.hpp"
#include "sim/types.hpp"

namespace ckesim {

/** Paper classification (Section 2.4: >20% LSU stalls => Memory). */
enum class KernelClass {
    Compute,
    Memory,
};

/** Address-stream shape of a kernel's global accesses. */
enum class AccessPattern {
    Streaming,       ///< warp-private sequential, little reuse
    TiledReuse,      ///< small per-warp working set, high reuse
    RandomFootprint, ///< random lines in a per-TB footprint
    StridedScatter,  ///< poorly coalesced scatter in a big footprint
};

/** Static + dynamic description of one synthetic kernel. */
struct KernelProfile
{
    std::string name;
    KernelClass expected_class = KernelClass::Compute;

    // ---- static resources (per thread block) -------------------------
    int threads_per_tb = 256;
    int regs_per_thread = 16;
    int smem_per_tb = 0;

    // ---- dynamic behaviour -------------------------------------------
    /** Mean compute instructions between memory instructions. */
    double cinst_per_minst = 4.0;
    /** Coalesced line requests per warp memory instruction. */
    int req_per_minst = 1;
    /** Fraction of compute instructions executed on the SFU. */
    double sfu_fraction = 0.0;
    /** Fraction of compute instructions that are shared-memory ops. */
    double smem_fraction = 0.0;
    /** Fraction of memory instructions that are stores. */
    double write_fraction = 0.1;

    AccessPattern pattern = AccessPattern::Streaming;
    /** Probability a memory instruction revisits a recent line. */
    double reuse_prob = 0.0;
    /** Random-footprint patterns: bytes touched per thread block. */
    std::uint64_t footprint_bytes = 1ULL << 20;
    /** Distinct footprint regions cycled across TB generations. A
     *  small count keeps the kernel's gather structures L2-resident
     *  (its stalls then come from MSHR/queue saturation, not DRAM
     *  bandwidth); a large count defeats the L2. */
    std::uint64_t footprint_regions = 64;
    /** Streaming patterns: number of distinct per-TB regions cycled
     *  through. Small values keep the stream set L2-resident (the
     *  behaviour of grid kernels that sweep a bounded working set);
     *  large values defeat the L2 entirely. */
    std::uint64_t stream_regions = 2048;

    /** Memory-level parallelism: independent loads a warp keeps in
     *  flight before blocking. Dependent-access kernels use 1;
     *  streaming matrix kernels overlap several (this is what lets a
     *  memory-intensive kernel saturate the MSHRs). */
    int mlp = 1;

    /** Instructions each warp executes before its TB completes. */
    int instrs_per_warp = 4096;

    // ---- derived ------------------------------------------------------
    int warpsPerTb(int simd_width) const
    {
        return (threads_per_tb + simd_width - 1) / simd_width;
    }

    /** Per-TB register demand. */
    int regsPerTb() const { return regs_per_thread * threads_per_tb; }

    /**
     * Maximum thread blocks one SM can hold when this kernel runs
     * alone (the min over the four static resources — Table 2's
     * occupancy binding resource).
     */
    int maxTbsPerSm(const SmConfig &sm) const;

    /** Occupancy of each static resource at maxTbsPerSm. */
    double rfOccupancy(const SmConfig &sm) const;
    double smemOccupancy(const SmConfig &sm) const;
    double threadOccupancy(const SmConfig &sm) const;
    double tbOccupancy(const SmConfig &sm) const;

    bool isMemoryIntensive() const
    {
        return expected_class == KernelClass::Memory;
    }
};

/** Field table (sim/fields.hpp), in job-key order. */
template <class V, ObjectOf<KernelProfile>... S>
constexpr void
fields(V &v, S &...s)
{
    v(Field{"name"}, s.name...);
    v(Field{"expected_class"}, s.expected_class...);
    v(Field{"threads_per_tb"}, s.threads_per_tb...);
    v(Field{"regs_per_thread"}, s.regs_per_thread...);
    v(Field{"smem_per_tb"}, s.smem_per_tb...);
    v(Field{"cinst_per_minst"}, s.cinst_per_minst...);
    v(Field{"req_per_minst"}, s.req_per_minst...);
    v(Field{"sfu_fraction"}, s.sfu_fraction...);
    v(Field{"smem_fraction"}, s.smem_fraction...);
    v(Field{"write_fraction"}, s.write_fraction...);
    v(Field{"pattern"}, s.pattern...);
    v(Field{"reuse_prob"}, s.reuse_prob...);
    v(Field{"footprint_bytes"}, s.footprint_bytes...);
    v(Field{"footprint_regions"}, s.footprint_regions...);
    v(Field{"stream_regions"}, s.stream_regions...);
    v(Field{"mlp"}, s.mlp...);
    v(Field{"instrs_per_warp"}, s.instrs_per_warp...);
}
static_assert(tableCovers<KernelProfile>());

/** The 13-benchmark suite of Table 2, in the paper's order. */
const std::vector<KernelProfile> &benchmarkSuite();

/** Look up a profile by its short name (e.g. "bp"). Throws SimError
 *  kind "ConfigError" naming an unknown one. */
const KernelProfile &findProfile(std::string_view name);

/** Suite members of one class, in suite order. */
std::vector<const KernelProfile *> kernelsOfClass(KernelClass cls);

} // namespace ckesim

#endif // CKESIM_KERNELS_PROFILE_HPP

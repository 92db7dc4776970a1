/**
 * @file
 * Per-kernel and per-SM statistic counters.
 *
 * These are exactly the signals the paper's mechanisms consume (QBMI
 * reads Req/Minst; DMIL reads reservation failures, request counts and
 * peak in-flight memory instructions) and the signals its figures plot
 * (IPC, L1D miss/rsfail rates, LSU stall %, compute utilization).
 */

#ifndef CKESIM_SIM_STATS_HPP
#define CKESIM_SIM_STATS_HPP

#include <cstdint>
#include <vector>

#include "sim/fields.hpp"
#include "sim/types.hpp"

namespace ckesim {

/** Why an L1D access could not be serviced this cycle. */
enum class RsFailReason {
    None,      ///< access was serviced (hit or miss queued)
    Line,      ///< no allocatable victim line in the set
    Mshr,      ///< MSHR table full (or merge list full)
    MissQueue, ///< miss queue full
};

/** Counters accumulated per kernel (per SM or aggregated). */
struct KernelStats
{
    // Instruction mix.
    std::uint64_t issued_instructions = 0; ///< all warp instrs issued
    std::uint64_t alu_instructions = 0;
    std::uint64_t sfu_instructions = 0;
    std::uint64_t smem_instructions = 0;
    std::uint64_t mem_instructions = 0;    ///< global-memory warp instrs
    std::uint64_t mem_requests = 0;        ///< coalesced line requests

    // L1 data cache behaviour.
    std::uint64_t l1d_accesses = 0;        ///< serviced accesses
    std::uint64_t l1d_hits = 0;
    std::uint64_t l1d_misses = 0;
    std::uint64_t l1d_rsfails = 0;         ///< reservation failures
    std::uint64_t l1d_rsfail_line = 0;
    std::uint64_t l1d_rsfail_mshr = 0;
    std::uint64_t l1d_rsfail_missq = 0;

    // Thread-block completion.
    std::uint64_t tbs_completed = 0;

    /** Average compute (ALU+SFU+SMEM) instructions per memory instr. */
    double cinstPerMinst() const
    {
        if (mem_instructions == 0)
            return 0.0;
        const std::uint64_t c = alu_instructions + sfu_instructions +
                                smem_instructions;
        return static_cast<double>(c) /
               static_cast<double>(mem_instructions);
    }

    /** Average coalesced requests per memory instruction (Req/Minst). */
    double reqPerMinst() const
    {
        if (mem_instructions == 0)
            return 0.0;
        return static_cast<double>(mem_requests) /
               static_cast<double>(mem_instructions);
    }

    /** L1D miss rate over serviced accesses. */
    double l1dMissRate() const
    {
        if (l1d_accesses == 0)
            return 0.0;
        return static_cast<double>(l1d_misses) /
               static_cast<double>(l1d_accesses);
    }

    /** Reservation failures per serviced L1D access (paper's metric). */
    double l1dRsFailRate() const
    {
        if (l1d_accesses == 0)
            return 0.0;
        return static_cast<double>(l1d_rsfails) /
               static_cast<double>(l1d_accesses);
    }

    KernelStats &operator+=(const KernelStats &o);
};

/** Field table (sim/fields.hpp): sums, fingerprints, snapshots and
 *  journal records all walk it in this order. */
template <class V, ObjectOf<KernelStats>... S>
constexpr void
fields(V &v, S &...s)
{
    v(Field{"issued_instructions"}, s.issued_instructions...);
    v(Field{"alu_instructions"}, s.alu_instructions...);
    v(Field{"sfu_instructions"}, s.sfu_instructions...);
    v(Field{"smem_instructions"}, s.smem_instructions...);
    v(Field{"mem_instructions"}, s.mem_instructions...);
    v(Field{"mem_requests"}, s.mem_requests...);
    v(Field{"l1d_accesses"}, s.l1d_accesses...);
    v(Field{"l1d_hits"}, s.l1d_hits...);
    v(Field{"l1d_misses"}, s.l1d_misses...);
    v(Field{"l1d_rsfails"}, s.l1d_rsfails...);
    v(Field{"l1d_rsfail_line"}, s.l1d_rsfail_line...);
    v(Field{"l1d_rsfail_mshr"}, s.l1d_rsfail_mshr...);
    v(Field{"l1d_rsfail_missq"}, s.l1d_rsfail_missq...);
    v(Field{"tbs_completed"}, s.tbs_completed...);
}
static_assert(tableCovers<KernelStats>());

/** Counters accumulated per SM, independent of kernel. */
struct SmStats
{
    std::uint64_t cycles = 0;
    /** Cycles in which the LSU had work but its head access failed
     *  reservation (the paper's "LSU stall cycles"). */
    std::uint64_t lsu_stall_cycles = 0;
    /** Scheduler-slots (num_schedulers * cycles) that issued an ALU op. */
    std::uint64_t alu_issue_slots = 0;
    /** Scheduler-slots that issued an SFU op. */
    std::uint64_t sfu_issue_slots = 0;
    /** Scheduler-slots that issued anything. */
    std::uint64_t issue_slots_used = 0;

    double lsuStallFraction() const
    {
        if (cycles == 0)
            return 0.0;
        return static_cast<double>(lsu_stall_cycles) /
               static_cast<double>(cycles);
    }

    SmStats &operator+=(const SmStats &o);
};

/** Field table (sim/fields.hpp). */
template <class V, ObjectOf<SmStats>... S>
constexpr void
fields(V &v, S &...s)
{
    v(Field{"cycles"}, s.cycles...);
    v(Field{"lsu_stall_cycles"}, s.lsu_stall_cycles...);
    v(Field{"alu_issue_slots"}, s.alu_issue_slots...);
    v(Field{"sfu_issue_slots"}, s.sfu_issue_slots...);
    v(Field{"issue_slots_used"}, s.issue_slots_used...);
}
static_assert(tableCovers<SmStats>());

/** Geometric mean of a non-empty vector of positive values. */
double geomean(const std::vector<double> &xs);

/**
 * Order-sensitive FNV-1a digest of every counter, for determinism
 * checks: two runs with the same config and seed must produce the
 * same fingerprint.
 */
inline std::uint64_t
fingerprint(const KernelStats &s, std::uint64_t seed = Fnv1a::kBasis)
{
    return fieldHash(s, seed);
}

inline std::uint64_t
fingerprint(const SmStats &s, std::uint64_t seed = Fnv1a::kBasis)
{
    return fieldHash(s, seed);
}

} // namespace ckesim

#endif // CKESIM_SIM_STATS_HPP

/**
 * @file
 * Generic set-associative tag array with allocate-on-miss reservation,
 * true-LRU replacement and optional per-kernel way masks (used by the
 * UCP cache-partitioning baseline of Section 3.1).
 *
 * The array stores tags and state only; it is untimed. Timing (hit
 * latency, miss path, reservation-failure retry) lives in the L1D
 * front-end and the L2 partition models that own a CacheArray.
 */

#ifndef CKESIM_MEM_CACHE_HPP
#define CKESIM_MEM_CACHE_HPP

#include <cstdint>
#include <vector>

#include "mem/address.hpp"
#include "sim/fields.hpp"
#include "sim/types.hpp"

namespace ckesim {

class SnapshotWriter;
class SnapshotReader;

/** State of one cache line. */
struct CacheLine
{
    LineAddr line_addr{};  ///< tag (full line address for simplicity)
    bool valid = false;
    bool reserved = false; ///< allocated on miss, fill pending
    bool dirty = false;    ///< WBWA caches only
    KernelId owner = kInvalidKernel; ///< kernel that installed the line
    std::uint64_t lru = 0; ///< last-touch timestamp
};

/** Result of a victim-selection attempt. */
struct VictimResult
{
    bool ok = false;        ///< false: every candidate way is reserved
    int way = -1;
    bool evicted_dirty = false;
    LineAddr evicted_line{}; ///< valid when evicted_dirty
};

/**
 * Set-associative tag array.
 *
 * Way masks: restrictToWays(kernel, first, count) constrains victim
 * selection for @p kernel to ways [first, first+count). Lookups always
 * probe all ways (UCP partitions allocation, not visibility).
 */
class CacheArray
{
  public:
    /**
     * @param num_sets number of sets (power of two)
     * @param assoc ways per set
     */
    CacheArray(int num_sets, int assoc);

    int numSets() const { return num_sets_; }
    int assoc() const { return assoc_; }

    /** Set index for a line address (xor indexing). */
    int setIndex(LineAddr line) const
    {
        return xorSetIndex(line, num_sets_);
    }

    /** Probe for @p line. @return way index or -1. */
    int probe(LineAddr line) const;

    /** Direct access to a line. */
    CacheLine &line(int set, int way) { return sets_[idx(set, way)]; }
    const CacheLine &line(int set, int way) const
    {
        return sets_[idx(set, way)];
    }

    /** Mark a hit: refresh LRU stamp. */
    void touch(int set, int way);

    /**
     * Pick a victim way for @p kernel in the set of @p line_number.
     * Prefers an invalid way, else the LRU non-reserved way among the
     * ways allowed for the kernel. Fails (ok=false) when every
     * candidate way is reserved — the paper's "no allocatable cache
     * line slot" reservation-failure source.
     */
    VictimResult chooseVictim(LineAddr line, KernelId kernel) const;

    /** Reserve a way for an in-flight fill (allocate-on-miss). */
    void reserve(int set, int way, LineAddr line, KernelId kernel);

    /** Complete a reserved fill, making the line valid. */
    void fill(int set, int way, bool dirty = false);

    /** Install a line immediately (valid, not reserved). */
    void install(int set, int way, LineAddr line, KernelId kernel,
                 bool dirty);

    /** Invalidate a line (write-evict policy). */
    void invalidate(int set, int way);

    /**
     * Restrict victim selection for @p kernel to @p count ways starting
     * at @p first. Pass count == assoc() to reset to unrestricted.
     */
    void restrictToWays(KernelId kernel, int first, int count);

    /** Remove all way restrictions. */
    void clearWayRestrictions();

    /** Number of valid lines currently owned by @p kernel. */
    int occupancyOf(KernelId kernel) const;

    /** Checkpoint walk of tag/state/LRU and way restrictions
     *  (sim/snapshot.hpp archives; geometry fixed at construction). */
    template <class Ar, ObjectOf<CacheArray> Self>
    static void state(Ar &ar, Self &self);

  private:
    std::size_t idx(int set, int way) const
    {
        return static_cast<std::size_t>(set) *
                   static_cast<std::size_t>(assoc_) +
               static_cast<std::size_t>(way);
    }

    bool wayAllowed(KernelId kernel, int way) const;

    int num_sets_; // SIMCHECK-ALLOW(snapshot-coverage): fixed at construction
    int assoc_;    // SIMCHECK-ALLOW(snapshot-coverage): fixed at construction
    std::vector<CacheLine> sets_;
    std::uint64_t tick_ = 0;

    struct WayRange { int first = 0; int count = 0; };
    /** Indexed by kernel id; count==0 means unrestricted. */
    std::vector<WayRange> restrictions_;
};

} // namespace ckesim

#endif // CKESIM_MEM_CACHE_HPP

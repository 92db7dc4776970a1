/**
 * @file
 * One L2 cache partition (Table 1: 128KB, 16-way, 128 MSHRs, WBWA,
 * xor-indexing, allocate-on-miss, LRU). Each partition fronts the DRAM
 * channel with the same index.
 *
 * The partition processes one request per cycle from its input queue.
 * A miss that cannot secure {MSHR, victim line, DRAM queue slot(s)}
 * stalls at the queue head, backpressuring the crossbar and, in turn,
 * the L1 miss queues of every SM — how one kernel's congestion reaches
 * other kernels' memory pipelines.
 */

#ifndef CKESIM_MEM_L2CACHE_HPP
#define CKESIM_MEM_L2CACHE_HPP

#include <vector>

#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/mshr.hpp"
#include "mem/request.hpp"
#include "sim/config.hpp"
#include "sim/ringbuf.hpp"
#include "sim/types.hpp"

namespace ckesim {

/** One address-hashed partition of the unified L2. */
class L2Partition
{
  public:
    L2Partition(const L2Config &cfg, int partition_index);

    /** Free input-queue slots (crossbar drains at most this many). */
    int inputRoom() const
    {
        return cfg_.miss_queue_depth -
               static_cast<int>(input_.size());
    }

    /** Push a request from the crossbar. @pre inputRoom() > 0. */
    void acceptInput(const MemRequest &req);

    /**
     * Process up to one input request this cycle, sending misses to
     * @p dram. Stalls (without popping) when miss resources are
     * unavailable.
     */
    void tick(Cycle now, DramChannel &dram);

    /** A DRAM fill for this partition's line arrived. */
    void onDramFill(const MemRequest &fill, Cycle now);

    /**
     * Pop read replies whose data is ready at @p now, appending them
     * to @p out. Allocation-free; the memory system calls this every
     * cycle with a reused scratch vector.
     */
    void drainReplies(Cycle now, std::vector<MemRequest> &out);

    /** Convenience wrapper for tests and cold paths. */
    std::vector<MemRequest>
    drainReplies(Cycle now)
    {
        std::vector<MemRequest> out;
        drainReplies(now, out);
        return out;
    }

    /** No queued input, outstanding miss, or undelivered reply. */
    bool idle() const
    {
        return input_.empty() && mshrs_.empty() && replies_.empty();
    }

    const CacheArray &tags() const { return tags_; }
    int inputSize() const { return static_cast<int>(input_.size()); }
    int mshrsInUse() const { return mshrs_.size(); }
    int repliesPending() const
    {
        return static_cast<int>(replies_.size());
    }

    /** Occupancy-bound and MSHR-ledger invariants (integrity sweep). */
    void checkInvariants(Cycle now) const;

    /** Serialize tags, MSHRs, input queue and pending replies. */
    void snapshot(SnapshotWriter &w) const;

    /** Restore into a partition of identical configuration. */
    void restore(SnapshotReader &r);

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    double missRate() const
    {
        return accesses_ != 0 ? static_cast<double>(misses_) /
                                    static_cast<double>(accesses_)
                              : 0.0;
    }

  private:
    struct Reply
    {
        Cycle ready{};
        MemRequest req;
    };

    L2Config cfg_;        // SNAPSHOT-SKIP(fixed at construction)
    int partition_index_; // SNAPSHOT-SKIP(fixed at construction)
    CacheArray tags_;
    MshrTable<MemRequest> mshrs_;
    RingBuf<MemRequest> input_; ///< flat hot queue (DESIGN.md §14)
    /** Replies in flight. Capacity covers the worst burst: every MSHR
     *  target plus a latency window of hits, all awaiting drain. */
    RingBuf<Reply> replies_;
    /** Reused by onDramFill(). */
    std::vector<MemRequest> fill_targets_; // SNAPSHOT-SKIP(scratch; dead between fills)
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace ckesim

#endif // CKESIM_MEM_L2CACHE_HPP

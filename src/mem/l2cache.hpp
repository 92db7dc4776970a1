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
    /** Requests one MSHR entry holds, the allocating one included. */
    static constexpr int kMergeWidth = 16;

    /**
     * Reply-ring capacity, which the memory system's retry ring behind
     * it shares: the worst burst is every MSHR target plus a latency
     * window of hits, none yet taken.
     */
    static int
    replyCapacity(const L2Config &cfg)
    {
        return cfg.num_mshrs * kMergeWidth + cfg.latency +
               cfg.miss_queue_depth + 8;
    }

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

    /** The oldest read reply if its data is ready at @p now, else
     *  null. Valid until the next popReply(). */
    const MemRequest *
    readyReply(Cycle now) const
    {
        if (replies_.empty() || replies_.front().ready > now)
            return nullptr;
        return &replies_.front().req;
    }

    /** Remove the reply readyReply() returned. */
    void popReply() { replies_.pop_front(); }

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

    /** Checkpoint walk of tags, MSHRs, input queue and pending
     *  replies (sim/snapshot.hpp archives). */
    template <class Ar, ObjectOf<L2Partition> Self>
    static void state(Ar &ar, Self &self);

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

    L2Config cfg_;        // SIMCHECK-ALLOW(snapshot-coverage): fixed at construction
    int partition_index_; // SIMCHECK-ALLOW(snapshot-coverage): fixed at construction
    CacheArray tags_;
    MshrTable<MemRequest> mshrs_;
    RingBuf<MemRequest> input_; ///< flat hot queue (DESIGN.md §14)
    RingBuf<Reply> replies_;    ///< replies in flight (replyCapacity())
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace ckesim

#endif // CKESIM_MEM_L2CACHE_HPP

/**
 * @file
 * Per-channel GDDR model with row-buffer locality and FR-FCFS-like
 * scheduling (Table 1: 16 channels, FR-FCFS, 48B/cycle at 924MHz).
 *
 * Each channel services one transaction at a time. Within a lookahead
 * window, requests hitting the currently open row of their bank are
 * prioritized (first-ready), otherwise first-come-first-served. Service
 * occupancy models data-burst bandwidth; a fixed access latency is
 * added on top for the returning fill.
 */

#ifndef CKESIM_MEM_DRAM_HPP
#define CKESIM_MEM_DRAM_HPP

#include <vector>

#include "mem/request.hpp"
#include "sim/config.hpp"
#include "sim/ringbuf.hpp"
#include "sim/types.hpp"

namespace ckesim {

class SnapshotWriter;
class SnapshotReader;

/** One DRAM channel. */
class DramChannel
{
  public:
    DramChannel(const DramConfig &cfg, int line_bytes);

    /** Try to enqueue a transaction; false when the queue is full. */
    bool tryEnqueue(const MemRequest &req, Cycle now);

    /** Advance to @p now; starts at most one new transaction. */
    void tick(Cycle now);

    /**
     * Pop fills (completed reads) whose data is available at @p now,
     * appending them to @p out. Allocation-free; the memory system
     * calls this every cycle with a reused scratch vector.
     */
    void drainFills(Cycle now, std::vector<MemRequest> &out);

    /** Convenience wrapper for tests and cold paths. */
    std::vector<MemRequest>
    drainFills(Cycle now)
    {
        std::vector<MemRequest> out;
        drainFills(now, out);
        return out;
    }

    int queueLength() const
    {
        return static_cast<int>(queue_.size());
    }
    int freeSlots() const { return cfg_.queue_depth - queueLength(); }
    bool busy(Cycle now) const { return busy_until_ > now; }

    /** No queued transaction and no fill awaiting pickup. */
    bool idle() const { return queue_.empty() && fills_.empty(); }

    /** Completed reads awaiting drainFills() pickup. */
    int fillsPending() const
    {
        return static_cast<int>(fills_.size());
    }

    /** Occupancy-bound invariants (integrity sweep). */
    void checkInvariants(Cycle now, int channel_index) const;

    /** Serialize queue, open rows, busy timer and pending fills. */
    void snapshot(SnapshotWriter &w) const;

    /** Restore into a channel of identical configuration. */
    void restore(SnapshotReader &r);

    /** Row-buffer hit-rate observed so far (diagnostics). */
    double rowHitRate() const
    {
        const std::uint64_t total = row_hits_ + row_misses_;
        return total != 0 ? static_cast<double>(row_hits_) /
                                static_cast<double>(total)
                          : 0.0;
    }

  private:
    struct Txn
    {
        MemRequest req;
        int bank = 0;
        std::uint64_t row = 0;
        Cycle arrival{};
    };
    struct Fill
    {
        Cycle ready{};
        MemRequest req;
    };

    int bankOf(LineAddr line_addr) const;
    std::uint64_t rowOf(LineAddr line_addr) const;

    DramConfig cfg_; // SNAPSHOT-SKIP(fixed at construction)
    int line_bytes_; // SNAPSHOT-SKIP(fixed at construction)
    RingBuf<Txn> queue_; ///< flat hot queue (DESIGN.md §14)
    std::vector<std::uint64_t> open_row_; ///< per bank; ~0 = closed
    Cycle busy_until_{};
    /** Completed reads in the access-latency pipeline. At most one
     *  fill is produced per tick and each is drained within
     *  access_latency + service cycles of creation, so the ring's
     *  capacity (queue_depth + access_latency + service slack) can
     *  never be reached by a consumer that drains every cycle. */
    RingBuf<Fill> fills_;
    std::uint64_t row_hits_ = 0;
    std::uint64_t row_misses_ = 0;
};

} // namespace ckesim

#endif // CKESIM_MEM_DRAM_HPP

/**
 * @file
 * Crossbar interconnect model (Table 1: 16x16 crossbar, 32B flits).
 *
 * Each destination port serializes arriving packets at one flit per
 * cycle on top of a fixed zero-load latency, and accepts at most
 * `input_queue_depth` in-flight packets; a full port rejects injection,
 * backpressuring L1 miss queues (and, transitively, producing L1D
 * reservation failures — the congestion chain of Section 4.5).
 */

#ifndef CKESIM_MEM_INTERCONNECT_HPP
#define CKESIM_MEM_INTERCONNECT_HPP

#include <vector>

#include "mem/request.hpp"
#include "sim/config.hpp"
#include "sim/ringbuf.hpp"
#include "sim/types.hpp"

namespace ckesim {

/**
 * One direction of the crossbar (SM->partition or partition->SM).
 * Packets become visible to drain() once their serialized delivery
 * time has passed.
 */
class Crossbar
{
  public:
    Crossbar(int num_dests, const IcntConfig &cfg);

    /**
     * Try to inject a packet of @p flits flits towards @p dest.
     * @return false when the destination port is saturated.
     */
    bool tryInject(int dest, int flits, const MemRequest &req, Cycle now);

    /**
     * Pop up to @p max_count packets already delivered to @p dest,
     * appending them to @p out. Allocation-free; the memory system
     * calls this every cycle with a reused scratch vector.
     */
    void drain(int dest, Cycle now, int max_count,
               std::vector<MemRequest> &out);

    /** Convenience wrapper for tests and cold paths. */
    std::vector<MemRequest>
    drain(int dest, Cycle now, int max_count)
    {
        std::vector<MemRequest> out;
        drain(dest, now, max_count, out);
        return out;
    }

    /** In-flight + undelivered packets queued for @p dest. */
    int queueLength(int dest) const
    {
        return static_cast<int>(ports_[static_cast<std::size_t>(dest)]
                                    .queue.size());
    }

    int numDests() const { return static_cast<int>(ports_.size()); }

    /** Serialize every port's queue and wire timer. */
    void snapshot(SnapshotWriter &w) const;

    /** Restore into a crossbar of identical geometry. */
    void restore(SnapshotReader &r);

  private:
    struct Packet
    {
        Cycle ready{};
        MemRequest req;
    };
    struct Port
    {
        RingBuf<Packet> queue; ///< flat hot queue (DESIGN.md §14)
        Cycle next_free{};     ///< when the port's wire frees up
    };

    IcntConfig cfg_; // SNAPSHOT-SKIP(fixed at construction)
    std::vector<Port> ports_;
};

} // namespace ckesim

#endif // CKESIM_MEM_INTERCONNECT_HPP

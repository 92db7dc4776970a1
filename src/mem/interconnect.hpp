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
 * A packet becomes the port's ready head once its serialized delivery
 * time has passed; the consumer takes it in place with pop().
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
     * The packet at the head of @p dest's port if it has arrived by
     * @p now, else null. Valid until the next pop(@p dest).
     */
    const MemRequest *
    readyHead(int dest, Cycle now) const
    {
        const Port &port = ports_[static_cast<std::size_t>(dest)];
        if (port.queue.empty() || port.queue.front().ready > now)
            return nullptr;
        return &port.queue.front().req;
    }

    /** Remove @p dest's head packet. @pre readyHead(dest, now). */
    void
    pop(int dest)
    {
        ports_[static_cast<std::size_t>(dest)].queue.pop_front();
    }

    /** In-flight + undelivered packets queued for @p dest. */
    int queueLength(int dest) const
    {
        return static_cast<int>(ports_[static_cast<std::size_t>(dest)]
                                    .queue.size());
    }

    /** Checkpoint walk of every port's queue and wire timer
     *  (sim/snapshot.hpp archives; geometry fixed at construction). */
    template <class Ar, ObjectOf<Crossbar> Self>
    static void state(Ar &ar, Self &self);

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

    IcntConfig cfg_; // SIMCHECK-ALLOW(snapshot-coverage): fixed at construction
    std::vector<Port> ports_;
};

} // namespace ckesim

#endif // CKESIM_MEM_INTERCONNECT_HPP

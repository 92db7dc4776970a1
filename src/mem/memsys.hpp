/**
 * @file
 * The shared memory subsystem below the SMs' L1Ds: forward crossbar,
 * L2 partitions, DRAM channels and the reply crossbar.
 */

#ifndef CKESIM_MEM_MEMSYS_HPP
#define CKESIM_MEM_MEMSYS_HPP

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "mem/address.hpp"
#include "mem/dram.hpp"
#include "mem/interconnect.hpp"
#include "mem/l2cache.hpp"
#include "mem/request.hpp"
#include "sim/config.hpp"
#include "sim/fault.hpp"
#include "sim/ringbuf.hpp"
#include "sim/types.hpp"

namespace ckesim {

/**
 * Shared L2 + interconnect + DRAM. SMs inject L1 miss / write-through
 * traffic and take the fills addressed to them in place.
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const GpuConfig &cfg);

    /**
     * Inject a request from SM @p sm_id towards the partition owning
     * its line. @return false when the crossbar port is saturated
     * (the request must stay in the L1 miss queue).
     */
    bool injectFromSm(const MemRequest &req, Cycle now);

    /** Advance every partition, channel and reply port one cycle. */
    void tick(Cycle now);

    /** Reply-port packets one SM takes in one cycle, at most. */
    static constexpr int kFillsPerCycle = 64;

    /**
     * The read fill SM @p sm_id takes next at @p now, or null: the
     * reply port's ready head while @p port_budget > 0, then the
     * oldest fill an injected DelayFill held back, once its time has
     * come. Valid until the next popFill().
     */
    const MemRequest *
    readyFill(SmId sm_id, Cycle now, int port_budget) const
    {
        if (port_budget > 0) {
            if (const MemRequest *head =
                    reply_.readyHead(static_cast<int>(sm_id.idx()), now))
                return head;
        }
        const auto &held = delayed_[sm_id.idx()];
        if (held.empty() || held.front().ready > now)
            return nullptr;
        return &held.front().req;
    }

    /**
     * Take the fill readyFill() returned. A reply-port packet spends
     * one unit of @p port_budget and first meets the fault injector,
     * which may drop it or hold it back; popFill then returns false
     * and the SM must not deliver it. Held fills are served with or
     * without an injector, so they still reach the SM after the
     * audit detaches it.
     */
    bool popFill(SmId sm_id, Cycle now, int &port_budget);

    int numPartitions() const
    {
        return static_cast<int>(partitions_.size());
    }
    const L2Partition &partition(int i) const
    {
        return *partitions_[static_cast<std::size_t>(i)];
    }
    const DramChannel &channel(int i) const
    {
        return *channels_[static_cast<std::size_t>(i)];
    }

    /** Aggregate L2 miss rate across partitions (diagnostics). */
    double l2MissRate() const;

    /** True when no request is anywhere in flight below the L1s. */
    bool quiescent() const;

    // ---- integrity layer ------------------------------------------------
    /** Attach a fault injector (nullptr = fault-free operation). */
    void setFaultInjector(FaultInjector *faults) { faults_ = faults; }

    /** Read requests injected below the L1s (conservation ledger). */
    std::uint64_t injectedReads() const { return injected_reads_; }
    /** Read fills handed back to SMs (conservation ledger). */
    std::uint64_t deliveredFills() const { return delivered_fills_; }
    /** Read requests still below the L1s. */
    std::uint64_t inflightReads() const { return inflight_; }

    /** Occupancy-bound + conservation invariants (integrity sweep). */
    void checkInvariants(Cycle now) const;

    /** Drained-state check for Gpu::audit(): every injected read
     *  retired and every queue empty. */
    void checkDrained(Cycle now) const;

    /** Multi-line occupancy dump for watchdog diagnostics. */
    std::string describeState() const;

    /** Checkpoint walk of every component below the L1s plus the
     *  ledger (sim/snapshot.hpp archives). */
    template <class Ar, ObjectOf<MemorySystem> Self>
    static void state(Ar &ar, Self &self);

  private:
    /** Offer @p r to its SM's reply port; false when the port is full. */
    bool injectReply(const MemRequest &r, Cycle now);
    /** Consult the injector for a reply-port fill: false when it drops
     *  the fill or holds it back. */
    bool passFaults(SmId sm_id, Cycle now, const MemRequest &fill);

    GpuConfig cfg_;  // SIMCHECK-ALLOW(snapshot-coverage): fixed at construction
    Crossbar fwd_;   ///< SM -> partition
    Crossbar reply_; ///< partition -> SM
    std::vector<std::unique_ptr<L2Partition>> partitions_;
    std::vector<std::unique_ptr<DramChannel>> channels_;
    /** Replies an overloaded reply port refused; retried each cycle
     *  before the partition's newer replies, which queue behind them.
     *  Sized like a partition's reply ring: the retry queue can never
     *  hold more than the partition could have produced. */
    std::vector<RingBuf<MemRequest>> reply_retry_;
    /** Fills held back by an injected DelayFill fault, per SM. */
    struct DelayedFill
    {
        Cycle ready{};
        MemRequest req;
    };
    // SIMCHECK-ALLOW(hotpath): fault-injection only; untouched on fault-free runs
    std::vector<std::deque<DelayedFill>> delayed_;
    FaultInjector *faults_ = nullptr; // SIMCHECK-ALLOW(snapshot-coverage): rebound by owner; the Gpu walks the injector
    std::uint64_t inflight_ = 0; ///< read requests below the L1s
    std::uint64_t injected_reads_ = 0;
    std::uint64_t injected_writes_ = 0;
    std::uint64_t delivered_fills_ = 0;
    std::uint64_t dropped_fills_ = 0;
};

} // namespace ckesim

#endif // CKESIM_MEM_MEMSYS_HPP

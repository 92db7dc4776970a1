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
#include "sim/profiler.hpp"
#include "sim/ringbuf.hpp"
#include "sim/types.hpp"

namespace ckesim {

/**
 * Shared L2 + interconnect + DRAM. SMs inject L1 miss / write-through
 * traffic and drain fills addressed to them.
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

    /**
     * Pop read fills delivered to SM @p sm_id by cycle @p now into
     * @p out (cleared first). Allocation-free; each SM calls this
     * every cycle with a reused scratch vector.
     */
    void drainRepliesForSm(SmId sm_id, Cycle now,
                           std::vector<MemRequest> &out);

    /** Convenience wrapper for tests and cold paths. */
    std::vector<MemRequest>
    drainRepliesForSm(SmId sm_id, Cycle now)
    {
        std::vector<MemRequest> out;
        drainRepliesForSm(sm_id, now, out);
        return out;
    }

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

    /** Attach a cycle-cost profiler (nullptr detaches). */
    void setProfiler(Profiler *prof) { prof_ = prof; }

    /** Read requests injected below the L1s (conservation ledger). */
    std::uint64_t injectedReads() const { return injected_reads_; }
    /** Read fills handed back to SMs (conservation ledger). */
    std::uint64_t deliveredFills() const { return delivered_fills_; }
    /** Fills discarded by an injected DropFill fault. */
    std::uint64_t droppedFills() const { return dropped_fills_; }
    /** Read requests still below the L1s. */
    std::uint64_t inflightReads() const { return inflight_; }

    /** Occupancy-bound + conservation invariants (integrity sweep). */
    void checkInvariants(Cycle now) const;

    /** Drained-state check for Gpu::audit(): every injected read
     *  retired and every queue empty. */
    void checkDrained(Cycle now) const;

    /** Multi-line occupancy dump for watchdog diagnostics. */
    std::string describeState() const;

    /** Serialize every component below the L1s plus the ledger. */
    void snapshot(SnapshotWriter &w) const;

    /** Restore into a memory system of identical configuration. */
    void restore(SnapshotReader &r);

  private:
    GpuConfig cfg_;  // SNAPSHOT-SKIP(fixed at construction)
    Crossbar fwd_;   ///< SM -> partition
    Crossbar reply_; ///< partition -> SM
    std::vector<std::unique_ptr<L2Partition>> partitions_;
    std::vector<std::unique_ptr<DramChannel>> channels_;
    /** Replies an overloaded reply port refused; retried each cycle.
     *  Sized like a partition's reply ring: the retry queue can never
     *  hold more than the partition could have produced. */
    std::vector<RingBuf<MemRequest>> reply_retry_;
    /** Fills held back by an injected DelayFill fault, per SM. */
    struct DelayedFill
    {
        Cycle ready{};
        MemRequest req;
    };
    // HOTPATH-ALLOW(fault-injection only; untouched on fault-free runs)
    std::vector<std::deque<DelayedFill>> delayed_;
    /** Reused by tick() for per-partition drains. */
    std::vector<MemRequest> tick_scratch_; // SNAPSHOT-SKIP(scratch; dead between drains)
    FaultInjector *faults_ = nullptr; // SNAPSHOT-SKIP(rebound by owner; injector state snapshotted by Gpu)
    Profiler *prof_ = nullptr; // SNAPSHOT-SKIP(observer; rebound by the Gpu)
    std::uint64_t inflight_ = 0; ///< read requests below the L1s
    std::uint64_t injected_reads_ = 0;
    std::uint64_t injected_writes_ = 0;
    std::uint64_t delivered_fills_ = 0;
    std::uint64_t dropped_fills_ = 0;
};

} // namespace ckesim

#endif // CKESIM_MEM_MEMSYS_HPP

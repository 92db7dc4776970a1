/**
 * @file
 * The streaming multiprocessor: TB dispatch with static resource
 * accounting, warp schedulers, execution latencies, the shared LSU /
 * L1D front-end, and the per-SM CKE issue controller.
 *
 * Intra-SM sharing: thread blocks from several kernels are resident at
 * once (per-kernel TB quotas from the partition policy); all warps
 * share the schedulers, LSU and L1D — the interference arena of the
 * paper.
 */

#ifndef CKESIM_SM_SM_HPP
#define CKESIM_SM_SM_HPP

#include <queue>
#include <vector>

#include "core/issue_policy.hpp"
#include "kernels/profile.hpp"
#include "mem/l1d.hpp"
#include "mem/memsys.hpp"
#include "sim/config.hpp"
#include "sim/profiler.hpp"
#include "sim/stats.hpp"
#include "sim/time_series.hpp"
#include "sm/lsu.hpp"
#include "sm/scheduler.hpp"
#include "sm/warp.hpp"

namespace ckesim {

/** One SM executing thread blocks from up to kMaxKernelsPerSm kernels. */
class Sm : public LsuHost
{
  public:
    Sm(const GpuConfig &cfg, SmId sm_id, MemorySystem &mem,
       std::vector<const KernelProfile *> kernels,
       const IssuePolicyConfig &policy);

    /** Set how many TBs of kernel @p k may be resident (partition). */
    void setTbQuota(KernelId k, int quota);
    int tbQuota(KernelId k) const
    {
        return ctx_[k.idx()].quota;
    }

    /** Advance one core cycle. */
    void tick(Cycle now);

    /**
     * Audit-drain cycle: deliver fills, process wakes, service the
     * LSU and inject queued misses, but dispatch no TB and issue no
     * instruction. Used by Gpu::audit() to retire outstanding state
     * without creating new work. Does not advance stats counters.
     */
    void drainTick(Cycle now);

    /** Zero all counters (phase changes keep warp/cache state). */
    void resetStats();

    // ---- inspection ----------------------------------------------------
    int numKernels() const { return static_cast<int>(ctx_.size()); }
    const KernelProfile &profile(KernelId k) const
    {
        return *ctx_[k.idx()].prof;
    }
    const KernelStats &kernelStats(KernelId k) const
    {
        return ctx_[k.idx()].stats;
    }
    const SmStats &smStats() const { return sm_stats_; }
    int residentTbs(KernelId k) const
    {
        return ctx_[k.idx()].resident;
    }
    IssueController &controller() { return controller_; }
    const IssueController &controller() const { return controller_; }
    L1Dcache &l1d() { return l1d_; }
    const L1Dcache &l1d() const { return l1d_; }
    const Lsu &lsu() const { return lsu_; }
    SmId smId() const { return sm_id_; }

    // ---- integrity layer ------------------------------------------------
    /** Attach a fault injector (nullptr = fault-free operation). */
    void setFaultInjector(FaultInjector *faults) { faults_ = faults; }

    /** Attach a cycle-cost profiler (nullptr detaches). */
    void
    setProfiler(Profiler *prof)
    {
        prof_ = prof;
        lsu_.setProfiler(prof);
    }

    /** Lifetime progress events: instructions issued + load requests
     *  returned. Monotonic (never reset); the watchdog's signal. */
    std::uint64_t progressCount() const
    {
        return lifetime_issued_ + lifetime_returns_;
    }

    /** Anything resident, queued or in flight on this SM? */
    bool hasWork() const;

    /** Memory-side quiescence: no LSU entries, allocated MSHRs,
     *  queued misses, pending wakes or outstanding warp requests. */
    bool memDrained() const;

    /** Occupancy-bound and accounting invariants (integrity sweep). */
    void checkInvariants(Cycle now) const;

    /** Drained-state check for Gpu::audit(). */
    void checkDrained(Cycle now) const;

    /** One-line occupancy dump for watchdog diagnostics. */
    std::string describeState() const;

    /** Attach per-kernel samplers (Figures 6 and 8); may be null. */
    void setIssueSeries(KernelId k, TimeSeries *ts)
    {
        ctx_[k.idx()].issue_series = ts;
    }
    void setL1dSeries(KernelId k, TimeSeries *ts)
    {
        ctx_[k.idx()].l1d_series = ts;
    }

    /** Observer of every serviced L1D access (UCP's UMON taps here). */
    using AccessObserver = void (*)(void *, KernelId, LineAddr);
    void
    setAccessObserver(AccessObserver fn, void *opaque)
    {
        access_observer_ = fn;
        access_observer_opaque_ = opaque;
    }

    /** Checkpoint walk of the SM's entire mutable state
     *  (sim/snapshot.hpp archives), for an SM of identical
     *  construction. */
    template <class Ar, ObjectOf<Sm> Self>
    static void state(Ar &ar, Self &self);

    // ---- LsuHost --------------------------------------------------------
    void lsuHitReturn(WarpSlot warp_slot, KernelId k,
                      Cycle ready_at) override;
    void lsuEntryDrained(WarpSlot warp_slot, KernelId k,
                         bool is_store) override;
    void lsuAccessServiced(KernelId k, LineAddr line,
                           const L1Outcome &outcome) override;
    void lsuReservationFailure(KernelId k, RsFailReason reason) override;

  private:
    struct KernelCtx
    {
        const KernelProfile *prof = nullptr; // not snapshot state (fixed at construction)
        int quota = 0;
        int resident = 0;
        std::uint64_t tb_seq = 0;
        KernelStats stats;
        TimeSeries *issue_series = nullptr; // not snapshot state (owned and snapshotted by the experiment)
        TimeSeries *l1d_series = nullptr;   // not snapshot state (owned and snapshotted by the experiment)
    };

    struct Resources
    {
        int regs = 0;
        int smem = 0;
        int threads = 0;
        int tbs = 0;
        int warps = 0;
    };

    void drainFills(Cycle now);
    void processWakes(Cycle now);
    void preScan(Cycle now);
    void tryDispatch(Cycle now);
    bool resourcesFit(const KernelProfile &prof) const;
    bool launchTb(KernelId k);
    bool anyReady(std::size_t kern, bool mem) const;
    std::array<bool, kMaxKernelsPerSm> readyMemDemand() const;

    /** Which of a kernel's Ready bitsets may issue right now. */
    struct IssueGate
    {
        bool nonmem = false; ///< next instruction is not global-mem
        bool mem = false;    ///< next instruction is global-mem
    };
    using IssueGates = std::array<IssueGate, kMaxKernelsPerSm>;
    /** Per kernel: controller admits and LSU room. mem is set only
     *  when a Ready global-mem warp exists. */
    IssueGates issueGates() const;
    /** Scheduler @p sched's Ready bitsets under @p gates into
     *  eligible_; false when the set is empty. */
    bool gatherEligible(std::size_t sched, const IssueGates &gates);
    void issueFrom(WarpSlot slot, Cycle now);
    void requestReturned(WarpSlot warp_slot, Cycle now);
    void retireWarp(WarpSlot slot);
    /** After a restore: rebind each warp stream's profile from ctx_
     *  and rebuild the derived stream, scan and due-wheel state. */
    void afterRestore();

    // ---- dense scan block (DESIGN.md §14) ---------------------------
    // Reading the ~176-byte Warp records costs one cache line per slot
    // per scan, so the per-cycle paths read L1-resident mirrors that
    // pack the only fields they need: scan_meta_ for transitions, ages
    // for GTO, and per-scheduler Ready bitsets so a pick costs a few
    // word operations instead of one gate check per Ready slot.
    // Derived from warps_ — resynced by syncScan() on every
    // transition, rebuilt on restore, never serialized.
    static constexpr std::uint8_t kScanStateMask = 0x07;
    static constexpr std::uint8_t kScanMemBit = 0x08;
    static constexpr int kScanKernelShift = 4;

    static std::uint8_t
    packScanMeta(const Warp &w)
    {
        const unsigned kern =
            w.kernel.valid() ? static_cast<unsigned>(w.kernel.idx())
                             : 0u;
        return static_cast<std::uint8_t>(
            static_cast<unsigned>(w.state) |
            (w.next_is_mem ? kScanMemBit : 0u) |
            (kern << kScanKernelShift));
    }

    /** Index in ready_bits_ of scheduler @p sched's Ready bitset for
     *  kernel index @p kern and next-is-mem @p mem (mask_words_ words,
     *  bit j = its j-th slot). One (kernel, mem) pair's bitsets for
     *  every scheduler are contiguous. */
    std::size_t
    readySet(std::size_t kern, bool mem, std::size_t sched) const
    {
        return ((kern * 2 + (mem ? 1u : 0u)) * schedulers_.size() +
                sched) *
               mask_words_;
    }

    /** Mirror slot @p s of warps_ into the scan block, moving its bit
     *  between the Ready bitsets. */
    void
    syncScan(std::size_t s)
    {
        const Warp &w = warps_[s];
        const std::uint8_t old = scan_meta_[s];
        const std::uint8_t neu = packScanMeta(w);
        const std::size_t sched = s % schedulers_.size();
        const std::size_t bit = schedulers_[sched].bitOf(WarpSlot{s});
        const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
        const auto word = [&](std::uint8_t meta) -> std::uint64_t & {
            return ready_bits_[readySet(meta >> kScanKernelShift,
                                        (meta & kScanMemBit) != 0, sched) +
                               bit / 64];
        };
        constexpr auto ready = static_cast<std::uint8_t>(WarpState::Ready);
        if ((old & kScanStateMask) == ready)
            word(old) &= ~mask;
        if ((neu & kScanStateMask) == ready)
            word(neu) |= mask;
        scan_meta_[s] = neu;
        scan_age_[s] = w.age;
    }

    /** File a newly Busy warp under its due cycle (see due_wheel_). */
    void
    fileDue(WarpSlot slot, Cycle ready_at)
    {
        const std::size_t bucket =
            static_cast<std::size_t>(ready_at.get()) & due_mask_;
        due_wheel_[bucket * due_words_ + slot.idx() / 64] |=
            std::uint64_t{1} << (slot.idx() % 64);
    }

    GpuConfig cfg_;     // SIMCHECK-ALLOW(snapshot-coverage): fixed at construction
    SmId sm_id_;        // SIMCHECK-ALLOW(snapshot-coverage): fixed at construction
    MemorySystem &mem_; // SIMCHECK-ALLOW(snapshot-coverage): reference; snapshotted by the Gpu
    std::vector<KernelCtx> ctx_;
    IssueController controller_;
    L1Dcache l1d_;
    Lsu lsu_;
    std::vector<WarpScheduler> schedulers_;
    std::vector<Warp> warps_;
    // Dense scan mirrors, all derived state rebuilt from warps_ on
    // restore:
    std::vector<std::uint8_t> scan_meta_; // SIMCHECK-ALLOW(snapshot-coverage): derived state|mem|kernel
    std::vector<std::uint64_t> scan_age_; // SIMCHECK-ALLOW(snapshot-coverage): derived age mirror (GTO)
    /** Due-wheel: Busy warps are filed under their ready_at bucket at
     *  issue, so preScan visits only the warps due this cycle instead
     *  of scanning every slot. Each bucket is a bitset over warp
     *  slots (due_words_ words, bit s = slot s). No bucket aliasing:
     *  the wheel spans more cycles than the longest issue latency, a
     *  Busy warp never changes ready_at, and the run loop ticks every
     *  cycle.
     *  SIMCHECK-ALLOW(snapshot-coverage): derived; rebuilt from warps_ on restore */
    std::vector<std::uint64_t> due_wheel_;
    std::size_t due_mask_ = 0;  // SIMCHECK-ALLOW(snapshot-coverage): fixed at construction
    std::size_t due_words_ = 0; // SIMCHECK-ALLOW(snapshot-coverage): fixed at construction
    /** Ready bitsets, indexed through readySet(). Words beyond a
     *  scheduler's slot count stay zero.
     *  SIMCHECK-ALLOW(snapshot-coverage): derived; rebuilt from warps_ on restore */
    std::vector<std::uint64_t> ready_bits_;
    std::size_t mask_words_ = 0; // SIMCHECK-ALLOW(snapshot-coverage): fixed at construction
    std::vector<std::uint64_t> eligible_; // SIMCHECK-ALLOW(snapshot-coverage): scratch; dead between picks
    std::vector<ThreadBlock> tbs_;
    Resources used_;
    SmStats sm_stats_;
    std::uint64_t age_counter_ = 0;
    int dispatch_rr_ = 0;
    Cycle now_{};

    /** Pending (cycle, warp_slot) load-data returns from L1 hits. */
    using WakeEvent = std::pair<Cycle, WarpSlot>;
    std::priority_queue<WakeEvent, std::vector<WakeEvent>,
                        std::greater<WakeEvent>>
        wakes_;

    // Scratch buffer reused every memory instruction.
    std::vector<LineAddr> scratch_lines_; // SIMCHECK-ALLOW(snapshot-coverage): scratch; dead between instructions

    // Scratch buffers reused every drainFills cycle.
    std::vector<MemRequest> scratch_fills_;  // SIMCHECK-ALLOW(snapshot-coverage): scratch; dead between cycles
    std::vector<L1Target> scratch_targets_;  // SIMCHECK-ALLOW(snapshot-coverage): scratch; dead between cycles

    AccessObserver access_observer_ = nullptr; // SIMCHECK-ALLOW(snapshot-coverage): rebound by the experiment on restore
    void *access_observer_opaque_ = nullptr;   // SIMCHECK-ALLOW(snapshot-coverage): rebound by the experiment on restore

    FaultInjector *faults_ = nullptr; // SIMCHECK-ALLOW(snapshot-coverage): rebound by the Gpu, which walks the injector
    Profiler *prof_ = nullptr; // SIMCHECK-ALLOW(snapshot-coverage): observer; rebound by the Gpu
    std::uint64_t lifetime_issued_ = 0;
    std::uint64_t lifetime_returns_ = 0;
};

} // namespace ckesim

#endif // CKESIM_SM_SM_HPP

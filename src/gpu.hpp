/**
 * @file
 * Top-level GPU: SM array + shared memory subsystem + CKE scheme
 * orchestration (TB partitioning, dynamic Warped-Slicer profiling,
 * SMK warp quotas, UCP repartitioning).
 */

#ifndef CKESIM_GPU_HPP
#define CKESIM_GPU_HPP

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/issue_policy.hpp"
#include "core/smk.hpp"
#include "core/tb_partition.hpp"
#include "core/ucp.hpp"
#include "core/warped_slicer.hpp"
#include "kernels/workload.hpp"
#include "mem/memsys.hpp"
#include "sim/config.hpp"
#include "sim/profiler.hpp"
#include "sim/run_control.hpp"
#include "sim/snapshot.hpp"
#include "sim/time_series.hpp"
#include "sm/sm.hpp"

namespace ckesim {

/** How TB quotas are decided. */
enum class PartitionScheme {
    Leftover,     ///< early CKE: first kernel hogs, rest fill leftovers
    Spatial,      ///< spatial multitasking: SMs split between kernels
    WarpedSlicer, ///< dynamic scalability-curve sweet point
    SmkDrf,       ///< SMK: DRF static-resource fairness
};

/** Full description of a CKE scheme under evaluation. */
struct SchemeSpec
{
    PartitionScheme partition = PartitionScheme::WarpedSlicer;
    BmiMode bmi = BmiMode::None;
    MilMode mil = MilMode::None;
    /** SMIL per-kernel limits (kSmilInf / 0 = unlimited). */
    std::array<int, kMaxKernelsPerSm> smil_limits{};

    /** SMK-(P+W): gate instruction issue with epoch quotas. */
    bool smk_warp_quota = false;
    /** Per-SM isolated IPC per kernel (feeds SMK quotas). */
    std::vector<double> isolated_ipc_per_sm;
    Cycle smk_epoch_cycles{2048};

    /** UCP L1D way partitioning (Section 3.1 baseline). */
    bool ucp = false;
    /** Repartition period: several UMON refills per measurement
     *  window even in quick (30K-cycle) runs. */
    Cycle ucp_interval{5000};

    /** Dynamic Warped-Slicer online profiling window. */
    Cycle ws_profile_window{20000};
    /** When non-empty: static ("oracle") curves, no online window. */
    std::vector<ScalabilityCurve> oracle_curves;

    // ---- Section 4.5 ("Further Discussion") ablations ---------------
    /** Partition the L1D MSHRs evenly between kernels. The paper
     *  argues this cannot help: the in-order LSU still blocks. */
    bool mshr_partition = false;
    /** Bypass the L1D for these kernels' read misses. */
    std::array<bool, kMaxKernelsPerSm> bypass_l1d{};
    /** Global DMIL: broadcast SM 0's MILG limits to all SMs
     *  (requires every SM to run the same kernel pair). */
    bool global_dmil = false;
    Cycle global_dmil_interval{1024};

    // ---- integrity layer --------------------------------------------
    /** Injected memory-pipeline faults (see sim/fault.hpp). Used to
     *  prove the watchdog/invariants fire and to study scheme
     *  behaviour under degraded pipelines. */
    std::vector<FaultSpec> faults;

    /** Structured validation of scheme knobs against @p cfg; throws
     *  SimError (kind "ConfigError") on nonsense. */
    void validate(const GpuConfig &cfg) const;
};

/** Field table (sim/fields.hpp), in job-key order. */
template <class V, ObjectOf<SchemeSpec>... S>
constexpr void
fields(V &v, S &...s)
{
    v(Field{"partition"}, s.partition...);
    v(Field{"bmi"}, s.bmi...);
    v(Field{"mil"}, s.mil...);
    v(Field{"smil_limits"}, s.smil_limits...);
    v(Field{"smk_warp_quota"}, s.smk_warp_quota...);
    v(Field{"isolated_ipc_per_sm"}, s.isolated_ipc_per_sm...);
    v(Field{"smk_epoch_cycles"}, s.smk_epoch_cycles...);
    v(Field{"ucp"}, s.ucp...);
    v(Field{"ucp_interval"}, s.ucp_interval...);
    v(Field{"ws_profile_window"}, s.ws_profile_window...);
    v(Field{"oracle_curves"}, s.oracle_curves...);
    v(Field{"mshr_partition"}, s.mshr_partition...);
    v(Field{"bypass_l1d"}, s.bypass_l1d...);
    v(Field{"global_dmil"}, s.global_dmil...);
    v(Field{"global_dmil_interval"}, s.global_dmil_interval...);
    v(Field{"faults"}, s.faults...);
}
static_assert(tableCovers<SchemeSpec>());

/** One simulated GPU executing one CKE workload under one scheme. */
class Gpu
{
  public:
    Gpu(const GpuConfig &cfg, const Workload &workload,
        const SchemeSpec &spec);
    ~Gpu();

    /**
     * Simulate @p cycles cycles (including any profiling window).
     *
     * Integrity: every `cfg.integrity.check_interval` cycles the
     * forward-progress watchdog polls a monotonic progress signature
     * (instructions issued + load requests returned + fills
     * delivered). If the machine still has work but the signature has
     * not moved for `cfg.integrity.watchdog_timeout` cycles, a
     * SimError (kind "Watchdog") is raised carrying per-SM queue
     * occupancies, in-flight counts, MIL limits and QBMI quotas.
     * Periodic occupancy/conservation sweeps run on the same cadence.
     */
    void run(Cycle cycles);

    /** No-op, kept because ckebench/harness.cpp still calls it. */
    void setFastForward(bool /*enabled*/) {}
    /** Always 0, kept because ckebench/harness.cpp still reads it. */
    std::uint64_t fastSkippedCycles() const { return 0; }

    /**
     * End-of-run conservation audit: drains all in-flight memory
     * state (no new instructions issue) and then proves that every
     * generated request retired — L1/L2 MSHR tables empty, miss and
     * LSU queues empty, the read ledger balanced, every warp's
     * pending-request count zero. Throws SimError on any leak.
     * Runs with faults disabled; a run whose faults actually fired
     * is expected to fail its audit (that is the point).
     */
    void audit();

    /** Cycles covered by the final measurement phase. */
    Cycle measuredCycles() const { return now_ - measured_start_; }

    int numKernels() const { return workload_.numKernels(); }

    /** GPU-wide IPC of kernel @p k over the measurement phase. */
    double ipc(KernelId k) const;

    /** Sum of kernel @p k's stats over all SMs (measurement phase). */
    KernelStats kernelStatsTotal(KernelId k) const;

    /** Sum of SM-level stats over all SMs (measurement phase). */
    SmStats smStatsTotal() const;

    /** Warped-Slicer's predicted WS at the sweet point. */
    double theoreticalWs() const { return sweet_.theoretical_ws; }

    /** Chosen per-SM TB partition (WS/SMK/Leftover modes). */
    const std::vector<int> &chosenPartition() const
    {
        return partition_;
    }

    Sm &sm(int i) { return *sms_[static_cast<std::size_t>(i)]; }
    const Sm &sm(int i) const
    {
        return *sms_[static_cast<std::size_t>(i)];
    }
    int numSms() const { return static_cast<int>(sms_.size()); }
    MemorySystem &memsys() { return mem_; }

    /** Attach GPU-wide per-kernel samplers (shared by every SM). */
    void attachSeries(KernelId k, TimeSeries *issue, TimeSeries *l1d);

    const GpuConfig &config() const { return cfg_; }

    /** The run's fault injector (counts how often faults fired). */
    const FaultInjector &faultInjector() const
    {
        return fault_injector_;
    }

    // ---- crash safety ---------------------------------------------------
    /**
     * Capture the complete mutable simulator state at the current
     * cycle: every SM (warps, schedulers, LSU, L1D), the memory
     * system, scheme state (Warped-Slicer, UCP monitors), the fault
     * injector and all RNG streams. restore(snapshot(t)) followed by
     * run(n) is bit-identical to running straight through t+n.
     */
    GpuSnapshot snapshot() const;

    /**
     * Restore a checkpoint taken from an identically constructed Gpu
     * (same config, workload and scheme). Throws SimError (kind
     * "Snapshot") on format-version or config-digest mismatch, or
     * when the payload does not match its fingerprint.
     */
    void restore(const GpuSnapshot &snap);

    /** Most recent automatic checkpoint taken by run() every
     *  cfg.integrity.checkpoint_interval cycles (nullptr if none). */
    const GpuSnapshot *lastCheckpoint() const
    {
        return last_checkpoint_ ? &*last_checkpoint_ : nullptr;
    }

    /** Attach cooperative cancellation / budget control (nullptr
     *  detaches). Polled on the integrity-check cadence; a tripped
     *  control raises SimError kind "Cancelled" or "Timeout". */
    void setRunControl(RunControl *rc) { run_control_ = rc; }

    /** Any memory request outstanding anywhere in the machine? The
     *  watchdog only raises while this holds: a compute-only phase
     *  legitimately makes no memory progress for long stretches. */
    bool memoryInFlight() const;

    /**
     * Attach a cycle-cost profiler (nullptr detaches): wall-time
     * attribution of the strict stepping loop to components
     * (DESIGN.md §14). Observation only — simulation results are
     * bit-identical with or without it. A Gpu constructed while the
     * CKESIM_PROF environment variable is set owns one and prints
     * its breakdown to stderr on destruction.
     */
    void setProfiler(Profiler *prof);
    Profiler *profiler() const { return cost_prof_; }

  private:
    void setupInitialPartition();
    void applyQuotas(const QuotaMatrix &quotas);
    void finishProfiling();
    void ucpRepartition();
    static void accessTap(void *opaque, KernelId k, LineAddr line);

    // Cycle stepping (shared by run and the audit drain).
    void tickComponents(Cycle at, bool drain);
    void stepCycle();

    // Integrity layer.
    std::uint64_t progressSignature() const;
    bool hasPendingWork() const;
    void watchdogPoll();
    void checkInvariants();
    void pollRunControl();
    [[noreturn]] void raiseWatchdog();

    GpuConfig cfg_;      // SNAPSHOT-SKIP(fixed at construction)
    Workload workload_;  // SNAPSHOT-SKIP(fixed at construction)
    SchemeSpec spec_;    // SNAPSHOT-SKIP(fixed at construction)
    MemorySystem mem_;
    std::vector<std::unique_ptr<Sm>> sms_;

    // Warped-Slicer state.
    bool profiling_ = false;
    Cycle profile_end_{};
    /** Per SM: (kernel, tb_count) during profiling; kernel<0 = idle. */
    std::vector<std::pair<int, int>> profile_assign_;
    SweetPoint sweet_;
    std::vector<int> partition_;

    // UCP state: umons_[sm][kernel].
    struct Tap
    {
        Gpu *gpu = nullptr;
        int sm = 0;
    };
    std::vector<std::vector<UmonMonitor>> umons_;
    std::vector<Tap> taps_; // SNAPSHOT-SKIP(pointer plumbing, fixed at construction)

    Cycle now_{};
    Cycle measured_start_{};

    // Integrity state.
    FaultInjector fault_injector_;
    std::uint64_t last_progress_sig_ = 0;
    Cycle last_progress_cycle_{};

    // Crash-safety state.
    RunControl *run_control_ = nullptr; // SNAPSHOT-SKIP(owned by the supervising caller)
    std::optional<GpuSnapshot> last_checkpoint_; // SNAPSHOT-SKIP(checkpoint artifact, not machine state)

    // Cycle-cost profiling (observation only, never machine state).
    Profiler *cost_prof_ = nullptr; // SNAPSHOT-SKIP(observer; rebound by the owner)
    std::unique_ptr<Profiler> owned_prof_; // SNAPSHOT-SKIP(CKESIM_PROF convenience instance)
};

/** Convenience: a standard spec for a named scheme combination. */
SchemeSpec makeScheme(PartitionScheme partition, BmiMode bmi,
                      MilMode mil);

} // namespace ckesim

#endif // CKESIM_GPU_HPP

/**
 * @file
 * Per-SM CKE issue controller: the paper's BMI (RBMI/QBMI) and MIL
 * (SMIL/DMIL) mechanisms, plus SMK's warp-instruction quota gating.
 *
 * The SM consults the controller before issuing instructions and feeds
 * back LSU/L1D events; the controller never touches SM state directly,
 * mirroring the lightweight-hardware framing of Section 4.4.
 */

#ifndef CKESIM_CORE_ISSUE_POLICY_HPP
#define CKESIM_CORE_ISSUE_POLICY_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "core/milg.hpp"
#include "core/qbmi.hpp"
#include "sim/snapshot.hpp"
#include "sim/types.hpp"

namespace ckesim {

/** Balanced-memory-issuing flavour (Section 3.2). */
enum class BmiMode {
    None, ///< unmanaged competition (baseline intra-SM sharing)
    RBMI, ///< loose round-robin over kernels
    QBMI, ///< quota-based (LCM of Req/Minst)
};

/** Memory-instruction-limiting flavour (Section 3.3). */
enum class MilMode {
    None,
    Static,  ///< SMIL: fixed per-kernel limits (offline sweep)
    Dynamic, ///< DMIL: per-kernel MILG adapts at run time
};

/** Scheme knobs an SM's controller is built from. */
struct IssuePolicyConfig
{
    BmiMode bmi = BmiMode::None;
    MilMode mil = MilMode::None;
    /** SMIL per-kernel limits; <= 0 means unlimited ("Inf"). */
    std::array<int, kMaxKernelsPerSm> static_limits{};
    /** SMK-(P+W): gate *all* instruction issue by epoch quotas. */
    bool warp_quota_enabled = false;
    /** SMK warp-instruction quota per kernel per epoch. */
    std::array<std::uint64_t, kMaxKernelsPerSm> warp_quotas{};
};

/**
 * Tracks per-kernel issue rights inside one SM.
 */
class IssueController
{
  public:
    IssueController(const IssuePolicyConfig &cfg, int num_kernels);

    /**
     * Called once per cycle before scheduling with, per kernel,
     * whether any ready warp wants to issue a *global memory*
     * instruction this cycle (BMI priority needs cross-kernel
     * demand).
     */
    void beginCycle(const std::array<bool, kMaxKernelsPerSm> &mem_demand);

    /** SMK-(P+W): may kernel @p k issue any instruction? */
    bool admitAnyIssue(KernelId k) const;

    /** SMK warp quotas on: every issue can flip admitAnyIssue. */
    bool warpQuotasEnabled() const { return cfg_.warp_quota_enabled; }

    /** May kernel @p k issue a global-memory instruction now? */
    bool admitMemIssue(KernelId k) const;

    // ---- event feedback ------------------------------------------------
    /** Any warp instruction issued (SMK quota accounting). */
    void onInstrIssued(KernelId k);
    /** A global-memory warp instruction entered the LSU. */
    void onMemInstrIssued(KernelId k);
    /** That instruction fully completed (loads: data returned). */
    void onMemInstrCompleted(KernelId k);
    /** A coalesced request was serviced by the L1D. */
    void onRequestServiced(KernelId k);
    /** A reservation failure charged to kernel @p k's head request. */
    void onRsFail(KernelId k);

    // ---- inspection ----------------------------------------------------
    int inflight(KernelId k) const
    {
        return inflight_[k.idx()];
    }
    /** Effective in-flight limit for kernel @p k (large = unlimited). */
    int milLimit(KernelId k) const;

    /**
     * Suspend/resume MIL enforcement (the dynamic Warped-Slicer
     * profiling phase measures unthrottled scalability curves).
     * Resuming resets the MILGs so stale profiling-phase limits do
     * not leak into the measurement phase.
     */
    void setMilBypass(bool bypass);

    /**
     * Global-DMIL variant (Section 3.3.2): adopt a broadcast limit
     * for kernel @p k instead of the local MILG's (0 clears the
     * override). Only meaningful in Dynamic mode.
     */
    void
    overrideMilLimit(KernelId k, int limit)
    {
        mil_override_[k.idx()] = limit;
    }
    int qbmiQuota(KernelId k) const
    {
        return quota_[k.idx()];
    }
    const Milg &milg(KernelId k) const
    {
        return milg_[k.idx()];
    }
    int numKernels() const { return num_kernels_; }

    /**
     * After a Warped-Slicer prefix restore (Gpu::restorePrefix): a
     * controller outside QBMI mode never reads its quotas or Req/Minst
     * estimators, so it takes back their construction values, the
     * state a straight run leaves there. A QBMI controller keeps the
     * restored state.
     */
    void canonicalizeQbmiState();

    /** Checkpoint walk of MIL/BMI/quota state (sim/snapshot.hpp
     *  archives; configuration fixed at construction). */
    template <class Ar, ObjectOf<IssueController> Self>
    static void state(Ar &ar, Self &self);

  private:
    void replenishQuotas();

    IssuePolicyConfig cfg_; // SIMCHECK-ALLOW(snapshot-coverage): fixed at construction
    int num_kernels_;       // SIMCHECK-ALLOW(snapshot-coverage): fixed at construction

    // MIL state.
    std::array<int, kMaxKernelsPerSm> inflight_{};
    std::array<Milg, kMaxKernelsPerSm> milg_{};
    std::array<int, kMaxKernelsPerSm> mil_override_{};
    bool mil_bypass_ = false;

    // BMI state.
    std::array<bool, kMaxKernelsPerSm> mem_demand_{};
    std::array<int, kMaxKernelsPerSm> quota_{};
    std::array<ReqPerMinstEstimator, kMaxKernelsPerSm> rpm_{};
    int rr_next_ = 0; ///< RBMI round-robin pointer

    // SMK warp-instruction quota state.
    std::array<std::int64_t, kMaxKernelsPerSm> warp_quota_left_{};
    int quota_stall_cycles_ = 0;
};

} // namespace ckesim

#endif // CKESIM_CORE_ISSUE_POLICY_HPP

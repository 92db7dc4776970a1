#include "core/issue_policy.hpp"

#include "sim/check.hpp"

namespace ckesim {

namespace {
/** Effectively "no limit". */
constexpr int kUnlimited = 1 << 20;
/** SMK quota deadlock escape: replenish if nothing issued this long. */
constexpr int kWarpQuotaStallReset = 256;

SimCtx
policyCtx(KernelId kernel = kInvalidKernel)
{
    SimCtx ctx;
    ctx.kernel = kernel;
    ctx.module = "issue_policy";
    return ctx;
}
} // namespace

IssueController::IssueController(const IssuePolicyConfig &cfg,
                                 int num_kernels)
    : cfg_(cfg), num_kernels_(num_kernels)
{
    SIM_CHECK(num_kernels >= 1 && num_kernels <= kMaxKernelsPerSm,
              policyCtx(),
              "issue controller built for " << num_kernels
                                            << " kernels (supported: 1.."
                                            << kMaxKernelsPerSm << ")");
    replenishQuotas();
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(num_kernels_); ++i) {
        warp_quota_left_[i] =
            static_cast<std::int64_t>(cfg_.warp_quotas[i]);
    }
}

void
IssueController::replenishQuotas()
{
    std::vector<double> rpm;
    rpm.reserve(static_cast<std::size_t>(num_kernels_));
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(num_kernels_); ++i)
        rpm.push_back(rpm_[i].value());
    const std::vector<int> fresh = qbmiQuotas(rpm);
    // The paper adds the new set to the current values so a kernel at
    // zero can still issue when no co-runner has a ready memory
    // instruction.
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(num_kernels_); ++i)
        quota_[i] += fresh[i];
}

void
IssueController::beginCycle(
    const std::array<bool, kMaxKernelsPerSm> &mem_demand)
{
    mem_demand_ = mem_demand;

    if (cfg_.bmi == BmiMode::QBMI) {
        bool depleted = false;
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(num_kernels_); ++i)
            if (quota_[i] <= 0)
                depleted = true;
        if (depleted)
            replenishQuotas();

        // QBMI x DMIL deadlock guard: a kernel frozen at its MIL
        // limit must never hold issue priority over the others — its
        // accumulated quota would starve every co-runner while it
        // waits on fills that cannot arrive until someone issues.
        // admitMemIssue skips frozen competitors, so whenever any
        // MIL-admissible kernel has demand, at least one of them
        // (the quota maximum) must be admitted.
        bool demand = false;
        bool admitted = false;
        for (int ki = 0; ki < num_kernels_; ++ki) {
            const KernelId k{ki};
            if (!mem_demand_[k.idx()])
                continue;
            if (inflight_[k.idx()] >= milLimit(k))
                continue;
            demand = true;
            if (admitMemIssue(k))
                admitted = true;
        }
        SIM_INVARIANT(
            !demand || admitted, policyCtx(),
            "QBMI priority deadlock: every demanding MIL-admissible "
            "kernel is blocked by a MIL-frozen competitor's quota");
    }

    if (cfg_.warp_quota_enabled) {
        bool all_spent = true;
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(num_kernels_); ++i)
            if (warp_quota_left_[i] > 0)
                all_spent = false;
        ++quota_stall_cycles_;
        if (all_spent || quota_stall_cycles_ > kWarpQuotaStallReset) {
            for (std::size_t i = 0;
                 i < static_cast<std::size_t>(num_kernels_); ++i) {
                warp_quota_left_[i] =
                    static_cast<std::int64_t>(cfg_.warp_quotas[i]);
            }
            quota_stall_cycles_ = 0;
        }
    }
}

bool
IssueController::admitAnyIssue(KernelId k) const
{
    if (!cfg_.warp_quota_enabled)
        return true;
    return warp_quota_left_[k.idx()] > 0;
}

bool
IssueController::admitMemIssue(KernelId k) const
{
    // MIL: cap in-flight memory instructions.
    if (inflight_[k.idx()] >= milLimit(k))
        return false;

    switch (cfg_.bmi) {
      case BmiMode::None:
        return true;
      case BmiMode::RBMI: {
        // Loose round robin: the next issuable demanding kernel at or
        // after the pointer goes first (MIL-frozen kernels skipped).
        for (int i = 0; i < num_kernels_; ++i) {
            const KernelId cand{(rr_next_ + i) % num_kernels_};
            if (!mem_demand_[cand.idx()])
                continue;
            if (cand != k && inflight_[cand.idx()] >= milLimit(cand))
                continue;
            return cand == k;
        }
        return true; // nobody registered demand: don't block
      }
      case BmiMode::QBMI: {
        // Highest current quota among demanding kernels goes first.
        // Kernels frozen by their MIL limit are not competitors: they
        // cannot issue this cycle, so they must not block others.
        const int mine = quota_[k.idx()];
        for (int oi = 0; oi < num_kernels_; ++oi) {
            const KernelId other{oi};
            if (other == k || !mem_demand_[other.idx()])
                continue;
            if (inflight_[other.idx()] >= milLimit(other))
                continue;
            if (quota_[other.idx()] > mine)
                return false;
        }
        return true;
      }
    }
    return true;
}

void
IssueController::onInstrIssued(KernelId k)
{
    quota_stall_cycles_ = 0;
    if (cfg_.warp_quota_enabled)
        --warp_quota_left_[k.idx()];
}

void
IssueController::onMemInstrIssued(KernelId k)
{
    const auto i = k.idx();
    ++inflight_[i];
    milg_[i].observeInflight(inflight_[i]);
    if (cfg_.bmi == BmiMode::QBMI) {
        --quota_[i];
        rpm_[i].onMemInstr();
    } else if (cfg_.bmi == BmiMode::RBMI) {
        rr_next_ = (k.get() + 1) % num_kernels_;
    }
}

void
IssueController::onMemInstrCompleted(KernelId k)
{
    const auto i = k.idx();
    SIM_INVARIANT(inflight_[i] > 0, policyCtx(k),
                  "memory-instruction completion with zero in flight "
                     "(duplicate completion or wrong kernel)");
    --inflight_[i];
}

void
IssueController::onRequestServiced(KernelId k)
{
    const auto i = k.idx();
    if (cfg_.bmi == BmiMode::QBMI)
        rpm_[i].onRequest();
    if (cfg_.mil == MilMode::Dynamic)
        milg_[i].onRequest();
}

void
IssueController::onRsFail(KernelId k)
{
    if (cfg_.mil == MilMode::Dynamic)
        milg_[k.idx()].onRsFail();
}

void
IssueController::setMilBypass(bool bypass)
{
    if (mil_bypass_ && !bypass) {
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(num_kernels_); ++i)
            milg_[i].reset();
    }
    mil_bypass_ = bypass;
}

void
IssueController::snapshot(SnapshotWriter &w) const
{
    w.section("issue_controller");
    for (std::size_t i = 0; i < kMaxKernelsPerSm; ++i)
        w.i64(inflight_[i]);
    for (std::size_t i = 0; i < kMaxKernelsPerSm; ++i)
        milg_[i].snapshot(w);
    for (std::size_t i = 0; i < kMaxKernelsPerSm; ++i)
        w.i64(mil_override_[i]);
    w.boolean(mil_bypass_);
    for (std::size_t i = 0; i < kMaxKernelsPerSm; ++i)
        w.boolean(mem_demand_[i]);
    for (std::size_t i = 0; i < kMaxKernelsPerSm; ++i)
        w.i64(quota_[i]);
    for (std::size_t i = 0; i < kMaxKernelsPerSm; ++i)
        rpm_[i].snapshot(w);
    w.i64(rr_next_);
    for (std::size_t i = 0; i < kMaxKernelsPerSm; ++i)
        w.i64(warp_quota_left_[i]);
    w.i64(quota_stall_cycles_);
}

void
IssueController::restore(SnapshotReader &r)
{
    r.section("issue_controller");
    for (std::size_t i = 0; i < kMaxKernelsPerSm; ++i)
        inflight_[i] = static_cast<int>(r.i64());
    for (std::size_t i = 0; i < kMaxKernelsPerSm; ++i)
        milg_[i].restore(r);
    for (std::size_t i = 0; i < kMaxKernelsPerSm; ++i)
        mil_override_[i] = static_cast<int>(r.i64());
    mil_bypass_ = r.boolean();
    for (std::size_t i = 0; i < kMaxKernelsPerSm; ++i)
        mem_demand_[i] = r.boolean();
    for (std::size_t i = 0; i < kMaxKernelsPerSm; ++i)
        quota_[i] = static_cast<int>(r.i64());
    for (std::size_t i = 0; i < kMaxKernelsPerSm; ++i)
        rpm_[i].restore(r);
    rr_next_ = static_cast<int>(r.i64());
    for (std::size_t i = 0; i < kMaxKernelsPerSm; ++i)
        warp_quota_left_[i] = r.i64();
    quota_stall_cycles_ = static_cast<int>(r.i64());
}

int
IssueController::milLimit(KernelId k) const
{
    const auto i = k.idx();
    if (mil_bypass_)
        return kUnlimited;
    if (cfg_.mil == MilMode::Dynamic && mil_override_[i] > 0)
        return mil_override_[i];
    switch (cfg_.mil) {
      case MilMode::None:
        return kUnlimited;
      case MilMode::Static: {
        const int lim = cfg_.static_limits[i];
        return lim > 0 ? lim : kUnlimited;
      }
      case MilMode::Dynamic:
        return milg_[i].limit();
    }
    return kUnlimited;
}

} // namespace ckesim

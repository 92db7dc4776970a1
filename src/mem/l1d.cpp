#include "mem/l1d.hpp"

#include <algorithm>
#include <numeric>

#include "sim/check.hpp"
#include "sim/snapshot.hpp"

namespace ckesim {

namespace {
SimCtx
l1dCtx(SmId sm_id, Cycle now = kNeverCycle)
{
    SimCtx ctx;
    ctx.cycle = now;
    ctx.sm_id = sm_id;
    ctx.module = "l1d";
    return ctx;
}
} // namespace

L1Dcache::L1Dcache(const L1dConfig &cfg, SmId sm_id)
    : cfg_(cfg), sm_id_(sm_id), tags_(cfg.numSets(), cfg.assoc),
      mshrs_(cfg.num_mshrs, cfg.mshr_merge),
      miss_queue_(cfg.miss_queue_depth)
{
    mshrs_.setCheckContext(l1dCtx(sm_id));
}

bool
L1Dcache::mshrQuotaExceeded(KernelId kernel) const
{
    if (kernel.idx() >= mshr_quota_.size())
        return false;
    const int quota = mshr_quota_[kernel.idx()];
    return quota > 0 && mshrsHeldBy(kernel) >= quota;
}

L1Outcome
L1Dcache::access(LineAddr line_number, KernelId kernel, bool write,
                 const L1Target &target, Cycle now)
{
    RsFailMemo &memo = rsfail_memo_;
    if (memo.reason != RsFailReason::None && memo.line == line_number &&
        memo.kernel == kernel && memo.write == write) {
        L1Outcome out;
        out.kind = L1Outcome::Kind::RsFail;
        out.fail = memo.reason;
        return out;
    }
    const L1Outcome out =
        probeAccess(line_number, kernel, write, target, now);
    memo = out.serviced()
               ? RsFailMemo{}
               : RsFailMemo{line_number, kernel, write, out.fail};
    return out;
}

L1Outcome
L1Dcache::probeAccess(LineAddr line_number, KernelId kernel, bool write,
                      const L1Target &target, Cycle now)
{
    L1Outcome out;

    if (write) {
        // WEWN: write-evict (drop any cached copy), write-no-allocate
        // (forward the write through the miss queue, no MSHR, no line).
        if (static_cast<int>(miss_queue_.size()) >=
            cfg_.miss_queue_depth) {
            out.kind = L1Outcome::Kind::RsFail;
            out.fail = RsFailReason::MissQueue;
            return out;
        }
        const int way = tags_.probe(line_number);
        const int set = tags_.setIndex(line_number);
        if (way >= 0 && tags_.isValid(set, way))
            tags_.invalidate(set, way);
        MemRequest req;
        req.line_addr = line_number;
        req.sm_id = sm_id_;
        req.kernel = kernel;
        req.kind = ReqKind::WriteThru;
        req.birth = now;
        miss_queue_.push_back(req);
        out.kind = L1Outcome::Kind::WriteQueued;
        return out;
    }

    // Read path.
    const int way = tags_.probe(line_number);
    if (way >= 0) {
        const int set = tags_.setIndex(line_number);
        if (tags_.isValid(set, way)) {
            tags_.touch(set, way);
            out.kind = L1Outcome::Kind::Hit;
            return out;
        }
        // Line reserved: an identical miss is outstanding; merge.
        // One probe resolves pending + merge-room + append.
        switch (mshrs_.tryMerge(line_number, target)) {
          case MshrTable<L1Target>::MergeResult::Merged:
            out.kind = L1Outcome::Kind::MergedMshr;
            return out;
          case MshrTable<L1Target>::MergeResult::Full:
            out.kind = L1Outcome::Kind::RsFail;
            out.fail = RsFailReason::Mshr;
            return out;
          case MshrTable<L1Target>::MergeResult::NoEntry:
            SIM_CHECK(false, l1dCtx(sm_id_, now),
                      "reserved line " << line_number
                                       << " with no outstanding miss");
            return out;
        }
    }

    // Bypassed misses hold no cache line, so an outstanding miss may
    // exist without a reserved line: merge into it.
    switch (mshrs_.tryMerge(line_number, target)) {
      case MshrTable<L1Target>::MergeResult::Merged:
        out.kind = L1Outcome::Kind::MergedMshr;
        return out;
      case MshrTable<L1Target>::MergeResult::Full:
        out.kind = L1Outcome::Kind::RsFail;
        out.fail = RsFailReason::Mshr;
        return out;
      case MshrTable<L1Target>::MergeResult::NoEntry:
        break; // brand-new miss
    }

    // Brand-new miss: need MSHR + victim line + miss-queue entry
    // (bypassed kernels skip the line slot).
    if (!mshrs_.hasFree() || mshrQuotaExceeded(kernel)) {
        out.kind = L1Outcome::Kind::RsFail;
        out.fail = RsFailReason::Mshr;
        return out;
    }
    if (static_cast<int>(miss_queue_.size()) >= cfg_.miss_queue_depth) {
        out.kind = L1Outcome::Kind::RsFail;
        out.fail = RsFailReason::MissQueue;
        return out;
    }
    if (!bypassed(kernel)) {
        VictimResult victim =
            tags_.chooseVictim(line_number, kernel);
        if (!victim.ok) {
            out.kind = L1Outcome::Kind::RsFail;
            out.fail = RsFailReason::Line;
            return out;
        }
        // WEWN lines are never dirty, so no writeback on eviction.
        tags_.reserve(tags_.setIndex(line_number), victim.way,
                      line_number, kernel);
    }
    // The allocating request seeds the merge list, so the entry's
    // first target IS the miss's owning kernel — no owner map.
    SIM_CHECK(target.kernel == kernel, l1dCtx(sm_id_, now),
              "miss target kernel " << target.kernel
                                    << " disagrees with issuing kernel "
                                    << kernel);
    mshrs_.allocate(line_number, target);
    if (kernel.idx() >= mshr_held_.size())
        mshr_held_.resize(kernel.idx() + 1, 0);
    ++mshr_held_[kernel.idx()];

    MemRequest req;
    req.line_addr = line_number;
    req.sm_id = sm_id_;
    req.kernel = kernel;
    req.kind = ReqKind::ReadMiss;
    req.birth = now;
    miss_queue_.push_back(req);

    out.kind = L1Outcome::Kind::MissToL2;
    return out;
}

std::span<const L1Target>
L1Dcache::fill(LineAddr line_number)
{
    rsfail_memo_.reason = RsFailReason::None;
    const int way = tags_.probe(line_number);
    if (way >= 0) {
        const int set = tags_.setIndex(line_number);
        if (tags_.isReserved(set, way))
            tags_.fill(set, way);
    }
    // Bypassed misses have no reserved line: nothing is installed.
    // The owner is the allocating request's kernel (first target).
    const std::span<const L1Target> targets = mshrs_.release(line_number);
    const KernelId owner = targets.front().kernel;
    SIM_INVARIANT(owner.idx() < mshr_held_.size(),
                  l1dCtx(sm_id_),
                  "fill of line " << line_number
                                  << " owned by untracked kernel "
                                  << owner);
    int &held = mshr_held_[owner.idx()];
    SIM_INVARIANT(held > 0, l1dCtx(sm_id_),
                  "MSHR holdings for kernel "
                      << owner << " underflow on fill of line "
                      << line_number);
    --held;
    return targets;
}

void
L1Dcache::checkInvariants(Cycle now) const
{
    const SimCtx ctx = l1dCtx(sm_id_, now);
    mshrs_.checkBalance(ctx);
    SIM_INVARIANT(missQueueSize() <= cfg_.miss_queue_depth, ctx,
                  "miss queue occupancy " << missQueueSize()
                                          << " exceeds depth "
                                          << cfg_.miss_queue_depth);
    const int held_total =
        std::accumulate(mshr_held_.begin(), mshr_held_.end(), 0);
    SIM_INVARIANT(held_total == mshrs_.size(), ctx,
                  "per-kernel MSHR holdings sum "
                      << held_total << " != MSHRs in use "
                      << mshrs_.size());
}

std::vector<std::pair<LineAddr, KernelId>>
L1Dcache::missOwners() const
{
    std::vector<std::pair<LineAddr, KernelId>> owners;
    owners.reserve(static_cast<std::size_t>(mshrs_.size()));
    mshrs_.forEach([&owners](LineAddr line,
                             const std::vector<L1Target> &targets) {
        owners.emplace_back(line, targets.front().kernel);
    });
    std::sort(owners.begin(), owners.end());
    return owners;
}

template <class Ar, ObjectOf<L1Dcache> Self>
void
L1Dcache::state(Ar &ar, Self &self)
{
    ar.section("l1d");
    CacheArray::state(ar, self.tags_);
    MshrTable<L1Target>::state(ar, self.mshrs_, [](auto &a, auto &t) {
        a.id(t.warp_slot);
        a.id(t.kernel);
    });
    RingBuf<MemRequest>::state(ar, self.miss_queue_, walkMemRequest);
    ar.length(self.mshr_quota_);
    for (auto &q : self.mshr_quota_)
        ar.i64(q);
    ar.length(self.mshr_held_);
    for (auto &h : self.mshr_held_)
        ar.i64(h);
    // The per-miss owner map of the pre-§14 format, now derived from
    // the MSHRs on both sides; a restore requires the stream's copy
    // to match the restored MSHRs.
    const auto owners = self.missOwners();
    auto walked = owners;
    ar.fixedLength(walked);
    for (auto &[line, owner] : walked) {
        ar.unit(line);
        ar.id(owner);
    }
    if constexpr (Ar::kLoading) {
        SIM_CHECK(walked == owners, l1dCtx(self.sm_id_),
                  "snapshot miss owners disagree with the MSHR first "
                  "targets");
    }
    ar.vecBool(self.bypass_);
    if constexpr (Ar::kLoading)
        self.afterRestore();
}

template void L1Dcache::state(SnapshotWriter &, const L1Dcache &);
template void L1Dcache::state(SnapshotReader &, L1Dcache &);

void
L1Dcache::checkDrained(Cycle now) const
{
    const SimCtx ctx = l1dCtx(sm_id_, now);
    SIM_INVARIANT(mshrs_.empty(), ctx,
                  "audit: " << mshrs_.size()
                            << " MSHR(s) never filled (ledger: "
                            << mshrs_.totalAllocated()
                            << " allocated, "
                            << mshrs_.totalReleased()
                            << " released)");
    SIM_INVARIANT(missQueueSize() == 0, ctx,
                  "audit: " << missQueueSize()
                            << " miss-queue entr(ies) never "
                               "injected downstream");
}

} // namespace ckesim

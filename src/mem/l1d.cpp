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
        if (way >= 0 && tags_.line(tags_.setIndex(line_number),
                                   way).valid) {
            tags_.invalidate(tags_.setIndex(line_number), way);
        }
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
        CacheLine &l = tags_.line(set, way);
        if (l.valid) {
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

void
L1Dcache::fill(LineAddr line_number, std::vector<L1Target> &out)
{
    rsfail_memo_.reason = RsFailReason::None;
    const int way = tags_.probe(line_number);
    if (way >= 0) {
        const int set = tags_.setIndex(line_number);
        if (tags_.line(set, way).reserved)
            tags_.fill(set, way);
    }
    // Bypassed misses have no reserved line: nothing is installed.
    // The owner is the allocating request's kernel (first target).
    const KernelId owner = mshrs_.firstTarget(line_number).kernel;
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
    mshrs_.releaseInto(line_number, out);
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

void
L1Dcache::snapshot(SnapshotWriter &w) const
{
    w.section("l1d");
    tags_.snapshot(w);
    mshrs_.snapshot(w, [](SnapshotWriter &sw, const L1Target &t) {
        sw.id(t.warp_slot);
        sw.id(t.kernel);
    });
    miss_queue_.snapshot(w, [](SnapshotWriter &sw,
                               const MemRequest &req) {
        snapshotMemRequest(sw, req);
    });
    w.u64(mshr_quota_.size());
    for (int q : mshr_quota_)
        w.i64(q);
    w.u64(mshr_held_.size());
    for (int h : mshr_held_)
        w.i64(h);
    // Per-miss owners, derived from the MSHR entries' first targets,
    // in sorted line order — byte-identical to the owner map the
    // pre-§14 format serialized here.
    std::vector<std::pair<LineAddr, KernelId>> owners;
    owners.reserve(static_cast<std::size_t>(mshrs_.size()));
    mshrs_.forEach([&owners](LineAddr line,
                             const std::vector<L1Target> &targets) {
        owners.emplace_back(line, targets.front().kernel);
    });
    std::sort(owners.begin(), owners.end());
    w.u64(owners.size());
    for (const auto &[line_number, owner] : owners) {
        w.unit(line_number);
        w.id(owner);
    }
    w.vecBool(bypass_);
}

void
L1Dcache::restore(SnapshotReader &r)
{
    r.section("l1d");
    rsfail_memo_.reason = RsFailReason::None;
    tags_.restore(r);
    mshrs_.restore(r, [](SnapshotReader &sr) {
        L1Target t;
        t.warp_slot = sr.id<WarpSlot>();
        t.kernel = sr.id<KernelId>();
        return t;
    });
    miss_queue_.restore(
        r, [](SnapshotReader &sr) { return restoreMemRequest(sr); });
    const std::uint64_t nquota = r.u64();
    mshr_quota_.assign(static_cast<std::size_t>(nquota), 0);
    for (int &q : mshr_quota_)
        q = static_cast<int>(r.i64());
    const std::uint64_t nheld = r.u64();
    mshr_held_.assign(static_cast<std::size_t>(nheld), 0);
    for (int &h : mshr_held_)
        h = static_cast<int>(r.i64());
    // Owners are derived state now; read the pairs the format still
    // carries and verify them against the restored MSHR entries.
    const SimCtx ctx = l1dCtx(sm_id_);
    const std::uint64_t nowner = r.u64();
    SIM_CHECK(nowner == static_cast<std::uint64_t>(mshrs_.size()), ctx,
              "snapshot holds " << nowner
                                << " miss owners, MSHR table has "
                                << mshrs_.size());
    for (std::uint64_t i = 0; i < nowner; ++i) {
        const LineAddr line_number = r.unit<LineAddr>();
        const KernelId kernel = r.id<KernelId>();
        SIM_CHECK(mshrs_.firstTarget(line_number).kernel == kernel,
                  ctx,
                  "snapshot miss owner for line "
                      << line_number << " (" << kernel
                      << ") disagrees with MSHR first target");
    }
    bypass_ = r.vecBool();
}

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

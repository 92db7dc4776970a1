#include "sm/lsu.hpp"

#include "sim/check.hpp"
#include "sim/snapshot.hpp"

namespace ckesim {

Lsu::Lsu(int queue_depth, int hit_latency, SmId sm_id)
    : depth_(queue_depth), hit_latency_(hit_latency), sm_id_(sm_id),
      queue_(queue_depth)
{
}

void
Lsu::enqueue(WarpSlot warp_slot, KernelId kernel, bool is_store,
             const std::vector<LineAddr> &lines)
{
    SimCtx ctx;
    ctx.sm_id = sm_id_;
    ctx.kernel = kernel;
    ctx.module = "lsu";
    SIM_CHECK(hasRoom(), ctx,
              "enqueue into full LSU queue (depth " << depth_ << ")");
    SIM_CHECK(!lines.empty(), ctx,
              "memory instruction with no coalesced lines");
    Entry e;
    e.warp_slot = warp_slot;
    e.kernel = kernel;
    e.is_store = is_store;
    e.lines = lines;
    queue_.push_back(std::move(e));
}

bool
Lsu::tick(Cycle now, L1Dcache &l1d, LsuHost &host)
{
    if (queue_.empty())
        return false;

    Entry &e = queue_.front();
    const LineAddr line = e.lines[e.next];
    L1Target target;
    target.warp_slot = e.warp_slot;
    target.kernel = e.kernel;

    L1Outcome out;
    {
        ProfScope prof_l1d(prof_, ProfComp::L1d);
        out = l1d.access(line, e.kernel, e.is_store, target, now);
    }

    if (!out.serviced()) {
        host.lsuReservationFailure(e.kernel, out.fail);
        return true;
    }

    host.lsuAccessServiced(e.kernel, line, out);
    if (!e.is_store && out.kind == L1Outcome::Kind::Hit) {
        host.lsuHitReturn(e.warp_slot, e.kernel,
                          now + static_cast<Cycle>(hit_latency_));
    }

    ++e.next;
    if (e.next >= e.lines.size()) {
        const WarpSlot warp_slot = e.warp_slot;
        const KernelId kernel = e.kernel;
        const bool is_store = e.is_store;
        queue_.pop_front();
        host.lsuEntryDrained(warp_slot, kernel, is_store);
    }
    return false;
}

template <class Ar, ObjectOf<Lsu> Self>
void
Lsu::state(Ar &ar, Self &self)
{
    ar.section("lsu");
    RingBuf<Entry>::state(ar, self.queue_, [&self](auto &a, auto &e) {
        a.id(e.warp_slot);
        a.id(e.kernel);
        a.boolean(e.is_store);
        a.length(e.lines);
        for (auto &line : e.lines)
            a.unit(line);
        a.u64(e.next);
        if constexpr (Ar::kLoading) {
            SimCtx ctx;
            ctx.sm_id = self.sm_id_;
            ctx.module = "lsu";
            SIM_CHECK(e.next <= e.lines.size(), ctx,
                      "LSU entry cursor " << e.next
                                          << " past line count "
                                          << e.lines.size());
        }
    });
}

template void Lsu::state(SnapshotWriter &, const Lsu &);
template void Lsu::state(SnapshotReader &, Lsu &);

} // namespace ckesim

#include "sm/lsu.hpp"

#include "sim/check.hpp"
#include "sim/profiler.hpp"
#include "sim/snapshot.hpp"

namespace ckesim {

Lsu::Lsu(int queue_depth, int entry_lines, int hit_latency, SmId sm_id)
    : depth_(queue_depth), entry_lines_(entry_lines),
      hit_latency_(hit_latency), sm_id_(sm_id), queue_(queue_depth),
      lines_(queue_depth * entry_lines)
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
    SIM_CHECK(!lines.empty() &&
                  lines.size() <= static_cast<std::size_t>(entry_lines_),
              ctx,
              "memory instruction with " << lines.size()
                                         << " coalesced lines (1.."
                                         << entry_lines_ << ")");
    Entry e;
    e.warp_slot = warp_slot;
    e.kernel = kernel;
    e.is_store = is_store;
    e.count = lines.size();
    for (const LineAddr line : lines)
        lines_.push_back(line);
    queue_.push_back(e);
}

bool
Lsu::tick(Cycle now, L1Dcache &l1d, LsuHost &host)
{
    if (queue_.empty())
        return false;

    Entry &e = queue_.front();
    const LineAddr line = lines_[e.next];
    L1Target target;
    target.warp_slot = e.warp_slot;
    target.kernel = e.kernel;

    L1Outcome out;
    {
        ProfScope prof_l1d(ProfComp::L1d);
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
    if (e.next >= e.count) {
        const WarpSlot warp_slot = e.warp_slot;
        const KernelId kernel = e.kernel;
        const bool is_store = e.is_store;
        for (std::size_t i = 0; i < e.count; ++i)
            lines_.pop_front();
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
    if constexpr (Ar::kLoading)
        self.lines_.clear();
    std::size_t first = 0; // lines_ index of the entry's first line
    RingBuf<Entry>::state(ar, self.queue_, [&self, &first](auto &a,
                                                           auto &e) {
        a.id(e.warp_slot);
        a.id(e.kernel);
        a.boolean(e.is_store);
        a.u64(e.count); // the wire form of a list's length
        if constexpr (Ar::kLoading) {
            SimCtx ctx;
            ctx.sm_id = self.sm_id_;
            ctx.module = "lsu";
            SIM_CHECK(e.count >= 1 &&
                          e.count <= static_cast<std::size_t>(
                                         self.entry_lines_),
                      ctx,
                      "LSU entry with " << e.count
                                        << " lines (1.."
                                        << self.entry_lines_ << ")");
            self.lines_.resize(first + e.count);
        }
        for (std::size_t i = 0; i < e.count; ++i)
            a.unit(self.lines_[first + i]);
        first += e.count;
        a.u64(e.next);
        if constexpr (Ar::kLoading) {
            SimCtx ctx;
            ctx.sm_id = self.sm_id_;
            ctx.module = "lsu";
            SIM_CHECK(e.next <= e.count, ctx,
                      "LSU entry cursor " << e.next
                                          << " past line count "
                                          << e.count);
        }
    });
}

template void Lsu::state(SnapshotWriter &, const Lsu &);
template void Lsu::state(SnapshotReader &, Lsu &);

} // namespace ckesim

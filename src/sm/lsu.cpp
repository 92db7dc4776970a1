#include "sm/lsu.hpp"

#include "sim/check.hpp"
#include "sim/profiler.hpp"
#include "sim/snapshot.hpp"

namespace ckesim {

Lsu::Lsu(int queue_depth, int entry_lines, int hit_latency, SmId sm_id)
    : depth_(queue_depth), entry_lines_(entry_lines),
      hit_latency_(hit_latency), sm_id_(sm_id), queue_(queue_depth),
      lines_(static_cast<std::size_t>(queue_depth) *
             static_cast<std::size_t>(entry_lines))
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
    e.first = line_tail_;
    e.count = lines.size();
    for (const LineAddr line : lines) {
        lines_[line_tail_] = line;
        line_tail_ = lineSlot(line_tail_, 1);
    }
    queue_.push_back(e);
}

bool
Lsu::tick(Cycle now, L1Dcache &l1d, LsuHost &host)
{
    if (queue_.empty())
        return false;

    Entry &e = queue_.front();
    const LineAddr line = lines_[lineSlot(e.first, e.next)];
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
        self.line_tail_ = 0;
    RingBuf<Entry>::state(ar, self.queue_, [&self](auto &a, auto &e) {
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
            e.first = self.line_tail_;
            self.line_tail_ = self.lineSlot(self.line_tail_, e.count);
        }
        for (std::size_t i = 0; i < e.count; ++i)
            a.unit(self.lines_[self.lineSlot(e.first, i)]);
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

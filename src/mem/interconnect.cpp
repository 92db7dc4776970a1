#include "mem/interconnect.hpp"

#include "sim/check.hpp"
#include "sim/snapshot.hpp"

namespace ckesim {

Crossbar::Crossbar(int num_dests, const IcntConfig &cfg)
    : cfg_(cfg), ports_(static_cast<std::size_t>(num_dests))
{
    for (Port &port : ports_)
        port.queue.reset(cfg.input_queue_depth);
}

bool
Crossbar::tryInject(int dest, int flits, const MemRequest &req, Cycle now)
{
    Port &port = ports_[static_cast<std::size_t>(dest)];
    if (static_cast<int>(port.queue.size()) >= cfg_.input_queue_depth)
        return false;

    const Cycle start =
        std::max<Cycle>(port.next_free, now + cfg_.latency);
    const Cycle ready = start + flits;
    port.next_free = ready;
    port.queue.push_back(Packet{ready, req});
    return true;
}

void
Crossbar::drain(int dest, Cycle now, int max_count,
                std::vector<MemRequest> &out)
{
    Port &port = ports_[static_cast<std::size_t>(dest)];
    int popped = 0;
    while (!port.queue.empty() && popped < max_count &&
           port.queue.front().ready <= now) {
        out.push_back(port.queue.front().req);
        port.queue.pop_front();
        ++popped;
    }
}

void
Crossbar::snapshot(SnapshotWriter &w) const
{
    w.section("crossbar");
    w.u64(ports_.size());
    for (const Port &port : ports_) {
        w.unit(port.next_free);
        port.queue.snapshot(w, [](SnapshotWriter &sw,
                                  const Packet &p) {
            sw.unit(p.ready);
            snapshotMemRequest(sw, p.req);
        });
    }
}

void
Crossbar::restore(SnapshotReader &r)
{
    r.section("crossbar");
    const std::uint64_t n = r.u64();
    SimCtx ctx;
    ctx.module = "icnt";
    SIM_CHECK(n == ports_.size(), ctx,
              "snapshot holds " << n << " crossbar ports, model has "
                                << ports_.size());
    for (Port &port : ports_) {
        port.next_free = r.unit<Cycle>();
        port.queue.restore(r, [](SnapshotReader &sr) {
            Packet p;
            p.ready = sr.unit<Cycle>();
            p.req = restoreMemRequest(sr);
            return p;
        });
    }
}

} // namespace ckesim

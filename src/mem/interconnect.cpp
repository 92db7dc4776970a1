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

template <class Ar, ObjectOf<Crossbar> Self>
void
Crossbar::state(Ar &ar, Self &self)
{
    ar.section("crossbar");
    ar.fixedLength(self.ports_);
    for (auto &port : self.ports_) {
        ar.unit(port.next_free);
        RingBuf<Packet>::state(ar, port.queue, [](auto &a, auto &p) {
            a.unit(p.ready);
            walkMemRequest(a, p.req);
        });
    }
}

template void Crossbar::state(SnapshotWriter &, const Crossbar &);
template void Crossbar::state(SnapshotReader &, Crossbar &);

} // namespace ckesim

#include "mem/memsys.hpp"

#include <sstream>

#include "sim/check.hpp"
#include "sim/profiler.hpp"
#include "sim/snapshot.hpp"

namespace ckesim {

namespace {
/** Flit counts. Requests (reads and 64B sector writes) occupy one
 *  forward flit; read replies occupy two reply flits (64B/cycle/SM
 *  return bandwidth). Sized so that neither crossbar direction is
 *  the global bandwidth limiter — in the paper's configuration the
 *  contended resources are the cache-miss resources and DRAM. */
constexpr int kReadReqFlits = 1;
constexpr int kWriteReqFlits = 1;
constexpr int kReplyFlits = 2;

SimCtx
memCtx(Cycle now = kNeverCycle)
{
    SimCtx ctx;
    ctx.cycle = now;
    ctx.module = "memsys";
    return ctx;
}
} // namespace

MemorySystem::MemorySystem(const GpuConfig &cfg)
    : cfg_(cfg),
      fwd_(cfg.numL2Partitions(), cfg.icnt),
      reply_(cfg.num_sms, cfg.icnt),
      reply_retry_(static_cast<std::size_t>(cfg.numL2Partitions())),
      delayed_(static_cast<std::size_t>(cfg.num_sms))
{
    for (RingBuf<MemRequest> &retry : reply_retry_)
        retry.reset(L2Partition::replyCapacity(cfg.l2));
    partitions_.reserve(static_cast<std::size_t>(cfg.numL2Partitions()));
    channels_.reserve(static_cast<std::size_t>(cfg.numL2Partitions()));
    for (int p = 0; p < cfg.numL2Partitions(); ++p) {
        partitions_.push_back(std::make_unique<L2Partition>(cfg.l2, p));
        channels_.push_back(
            std::make_unique<DramChannel>(cfg.dram, cfg.l2.line_bytes));
    }
}

bool
MemorySystem::injectFromSm(const MemRequest &req, Cycle now)
{
    const int dest = linePartition(req.line_addr, numPartitions());
    if (faults_ && faults_->stallCrossbarPort(dest, now))
        return false;
    const int flits =
        req.kind == ReqKind::WriteThru ? kWriteReqFlits : kReadReqFlits;
    if (!fwd_.tryInject(dest, flits, req, now))
        return false;
    if (req.kind == ReqKind::ReadMiss) {
        ++injected_reads_;
        ++inflight_;
    } else {
        ++injected_writes_;
    }
    return true;
}

void
MemorySystem::tick(Cycle now)
{
    for (int p = 0; p < numPartitions(); ++p) {
        L2Partition &part = *partitions_[static_cast<std::size_t>(p)];
        DramChannel &chan = *channels_[static_cast<std::size_t>(p)];

        // Crossbar -> partition input queue, as room allows.
        if (part.inputRoom() > 0) {
            ProfScope prof_noc(ProfComp::Noc);
            const MemRequest *req = nullptr;
            while (part.inputRoom() > 0 &&
                   (req = fwd_.readyHead(p, now)) != nullptr) {
                part.acceptInput(*req);
                fwd_.pop(p);
            }
        }

        const bool frozen = faults_ && faults_->dramFrozen(p, now);
        {
            ProfScope prof_l2(ProfComp::L2);
            part.tick(now, chan);
        }
        {
            ProfScope prof_dram(ProfComp::Dram);
            if (!frozen)
                chan.tick(now);
        }
        if (const MemRequest *fill = chan.readyFill(now)) {
            ProfScope prof_l2(ProfComp::L2);
            do {
                part.onDramFill(*fill, now);
                chan.popFill();
            } while ((fill = chan.readyFill(now)) != nullptr);
        }

        // Partition replies -> reply crossbar. Refused replies retry
        // first, in order; while one waits, newer replies queue
        // behind it rather than overtake it.
        ProfScope prof_noc(ProfComp::Noc);
        RingBuf<MemRequest> &retry =
            reply_retry_[static_cast<std::size_t>(p)];
        while (!retry.empty() && injectReply(retry.front(), now))
            retry.pop_front();
        while (const MemRequest *r = part.readyReply(now)) {
            if (!retry.empty() || !injectReply(*r, now))
                retry.push_back(*r);
            part.popReply();
        }
    }
}

bool
MemorySystem::injectReply(const MemRequest &r, Cycle now)
{
    return reply_.tryInject(static_cast<int>(r.sm_id.idx()), kReplyFlits,
                            r, now);
}

bool
MemorySystem::popFill(SmId sm_id, Cycle now, int &port_budget)
{
    const int port = static_cast<int>(sm_id.idx());
    const MemRequest *head =
        port_budget > 0 ? reply_.readyHead(port, now) : nullptr;
    if (head == nullptr) {
        delayed_[sm_id.idx()].pop_front();
    } else {
        --port_budget;
        const bool deliver =
            !faults_ || faults_->empty() || passFaults(sm_id, now, *head);
        reply_.pop(port);
        if (!deliver)
            return false;
    }
    ++delivered_fills_;
    SIM_INVARIANT(inflight_ > 0, memCtx(now),
                  "delivered a fill to sm " << sm_id
                                            << " with no read in flight");
    --inflight_;
    return true;
}

bool
MemorySystem::passFaults(SmId sm_id, Cycle now, const MemRequest &fill)
{
    if (faults_->dropFill(sm_id, now)) {
        // The read leaves the system without a delivery: the L1 MSHR
        // is never released — a hard fault the watchdog (or audit)
        // must report, not mask.
        ++dropped_fills_;
        SIM_INVARIANT(inflight_ > 0, memCtx(now),
                      "dropped a fill for sm " << sm_id
                                               << " with no read in flight");
        --inflight_;
        return false;
    }
    const Cycle delay = faults_->fillDelay(sm_id, now);
    if (delay > Cycle{}) {
        delayed_[sm_id.idx()].push_back(DelayedFill{now + delay, fill});
        return false;
    }
    return true;
}

double
MemorySystem::l2MissRate() const
{
    std::uint64_t acc = 0;
    std::uint64_t miss = 0;
    for (const auto &p : partitions_) {
        acc += p->accesses();
        miss += p->misses();
    }
    return acc ? static_cast<double>(miss) / static_cast<double>(acc)
               : 0.0;
}

bool
MemorySystem::quiescent() const
{
    for (int p = 0; p < numPartitions(); ++p) {
        if (fwd_.queueLength(p) > 0)
            return false;
        if (!partitions_[static_cast<std::size_t>(p)]->idle())
            return false;
        if (!channels_[static_cast<std::size_t>(p)]->idle())
            return false;
        if (!reply_retry_[static_cast<std::size_t>(p)].empty())
            return false;
    }
    for (int s = 0; s < cfg_.num_sms; ++s) {
        if (reply_.queueLength(s) > 0)
            return false;
        if (!delayed_[static_cast<std::size_t>(s)].empty())
            return false;
    }
    return true;
}

void
MemorySystem::checkInvariants(Cycle now) const
{
    const SimCtx ctx = memCtx(now);
    for (int p = 0; p < numPartitions(); ++p) {
        partitions_[static_cast<std::size_t>(p)]->checkInvariants(now);
        channels_[static_cast<std::size_t>(p)]->checkInvariants(now, p);
        SIM_INVARIANT(fwd_.queueLength(p) <=
                          cfg_.icnt.input_queue_depth,
                      ctx,
                      "forward crossbar port " << p << " occupancy "
                          << fwd_.queueLength(p) << " exceeds depth "
                          << cfg_.icnt.input_queue_depth);
    }
    for (int s = 0; s < cfg_.num_sms; ++s) {
        SIM_INVARIANT(reply_.queueLength(s) <=
                          cfg_.icnt.input_queue_depth,
                      ctx,
                      "reply crossbar port " << s << " occupancy "
                          << reply_.queueLength(s) << " exceeds depth "
                          << cfg_.icnt.input_queue_depth);
    }
    SIM_INVARIANT(delivered_fills_ + dropped_fills_ + inflight_ ==
                      injected_reads_,
                  ctx,
                  "read ledger imbalance: injected="
                      << injected_reads_ << " delivered="
                      << delivered_fills_ << " dropped="
                      << dropped_fills_ << " inflight=" << inflight_);
}

void
MemorySystem::checkDrained(Cycle now) const
{
    const SimCtx ctx = memCtx(now);
    SIM_INVARIANT(quiescent(), ctx,
                  "audit: memory system not quiescent after drain\n"
                      << describeState());
    SIM_INVARIANT(inflight_ == 0, ctx,
                  "audit: " << inflight_
                            << " injected read(s) never produced a "
                               "fill (ledger: injected="
                            << injected_reads_ << " delivered="
                            << delivered_fills_ << " dropped="
                            << dropped_fills_ << ")");
}

template <class Ar, ObjectOf<MemorySystem> Self>
void
MemorySystem::state(Ar &ar, Self &self)
{
    ar.section("memsys");
    Crossbar::state(ar, self.fwd_);
    Crossbar::state(ar, self.reply_);
    for (const auto &part : self.partitions_)
        L2Partition::state(ar, likeSelf<Self>(*part));
    for (const auto &chan : self.channels_)
        DramChannel::state(ar, likeSelf<Self>(*chan));
    ar.fixedLength(self.reply_retry_);
    for (auto &retry : self.reply_retry_)
        RingBuf<MemRequest>::state(ar, retry, walkMemRequest);
    ar.fixedLength(self.delayed_);
    for (auto &held : self.delayed_) {
        ar.length(held);
        for (auto &f : held) {
            ar.unit(f.ready);
            walkMemRequest(ar, f.req);
        }
    }
    ar.u64(self.inflight_);
    ar.u64(self.injected_reads_);
    ar.u64(self.injected_writes_);
    ar.u64(self.delivered_fills_);
    ar.u64(self.dropped_fills_);
}

template void MemorySystem::state(SnapshotWriter &, const MemorySystem &);
template void MemorySystem::state(SnapshotReader &, MemorySystem &);

std::string
MemorySystem::describeState() const
{
    std::ostringstream os;
    os << "memsys: inflight_reads=" << inflight_
       << " injected=" << injected_reads_
       << " delivered=" << delivered_fills_
       << " dropped=" << dropped_fills_ << "\n";
    for (int p = 0; p < numPartitions(); ++p) {
        const L2Partition &part =
            *partitions_[static_cast<std::size_t>(p)];
        const DramChannel &chan =
            *channels_[static_cast<std::size_t>(p)];
        if (fwd_.queueLength(p) == 0 && part.idle() && chan.idle() &&
            reply_retry_[static_cast<std::size_t>(p)].empty())
            continue;
        os << "  part " << p << ": xbar_in=" << fwd_.queueLength(p)
           << " l2_in=" << part.inputSize()
           << " l2_mshr=" << part.mshrsInUse()
           << " l2_replies=" << part.repliesPending()
           << " dram_q=" << chan.queueLength()
           << " dram_fills=" << chan.fillsPending() << " reply_retry="
           << reply_retry_[static_cast<std::size_t>(p)].size()
           << "\n";
    }
    for (int s = 0; s < cfg_.num_sms; ++s) {
        const auto held = delayed_[static_cast<std::size_t>(s)].size();
        if (reply_.queueLength(s) == 0 && held == 0)
            continue;
        os << "  sm " << s << ": reply_q=" << reply_.queueLength(s)
           << " delayed_fills=" << held << "\n";
    }
    return os.str();
}

} // namespace ckesim

#include "mem/memsys.hpp"

#include <sstream>

#include "sim/check.hpp"
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
        retry.reset(cfg.l2.num_mshrs * 16 + cfg.l2.latency +
                    cfg.l2.miss_queue_depth + 8);
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
        const int room = part.inputRoom();
        if (room > 0) {
            ProfScope prof_noc(prof_, ProfComp::Noc);
            tick_scratch_.clear();
            fwd_.drain(p, now, room, tick_scratch_);
            for (const MemRequest &req : tick_scratch_)
                part.acceptInput(req);
        }

        const bool frozen = faults_ && faults_->dramFrozen(p, now);
        {
            ProfScope prof_l2(prof_, ProfComp::L2);
            part.tick(now, chan);
        }
        {
            ProfScope prof_dram(prof_, ProfComp::Dram);
            if (!frozen)
                chan.tick(now);
            tick_scratch_.clear();
            chan.drainFills(now, tick_scratch_);
        }
        if (!tick_scratch_.empty()) {
            ProfScope prof_l2(prof_, ProfComp::L2);
            for (const MemRequest &fill : tick_scratch_)
                part.onDramFill(fill, now);
        }

        // Partition replies -> reply crossbar, retrying refused ones.
        ProfScope prof_noc(prof_, ProfComp::Noc);
        RingBuf<MemRequest> &retry =
            reply_retry_[static_cast<std::size_t>(p)];
        tick_scratch_.clear();
        part.drainReplies(now, tick_scratch_);
        for (const MemRequest &r : tick_scratch_)
            retry.push_back(r);
        while (!retry.empty()) {
            const MemRequest &r = retry.front();
            if (!reply_.tryInject(static_cast<int>(r.sm_id.idx()),
                                  kReplyFlits, r, now))
                break;
            retry.pop_front();
        }
    }
}

void
MemorySystem::drainRepliesForSm(SmId sm_id, Cycle now,
                                std::vector<MemRequest> &out)
{
    out.clear();
    reply_.drain(static_cast<int>(sm_id.idx()), now,
                 /*max_count=*/64, out);

    if (faults_ && !faults_->empty()) {
        // Filter in place: compact surviving fills to the front.
        std::size_t kept = 0;
        for (std::size_t i = 0; i < out.size(); ++i) {
            const MemRequest &r = out[i];
            if (faults_->dropFill(sm_id, now)) {
                // The read leaves the system without a delivery: the
                // L1 MSHR is never released — a hard fault the
                // watchdog (or audit) must report, not mask.
                ++dropped_fills_;
                SIM_INVARIANT(inflight_ > 0, memCtx(now),
                              "dropped a fill for sm "
                                  << sm_id
                                  << " with no read in flight");
                --inflight_;
                continue;
            }
            const Cycle delay = faults_->fillDelay(sm_id, now);
            if (delay > Cycle{}) {
                delayed_[sm_id.idx()].push_back(
                    DelayedFill{now + delay, r});
                continue;
            }
            out[kept++] = r;
        }
        out.resize(kept);
    }

    // HOTPATH-ALLOW(fault-injection only; untouched on fault-free runs)
    std::deque<DelayedFill> &held = delayed_[sm_id.idx()];
    while (!held.empty() && held.front().ready <= now) {
        out.push_back(held.front().req);
        held.pop_front();
    }

    const std::uint64_t n = static_cast<std::uint64_t>(out.size());
    delivered_fills_ += n;
    SIM_INVARIANT(inflight_ >= n, memCtx(now),
                  "delivered " << n << " fill(s) to sm " << sm_id
                               << " with only " << inflight_
                               << " read(s) in flight");
    inflight_ -= n;
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

void
MemorySystem::snapshot(SnapshotWriter &w) const
{
    w.section("memsys");
    fwd_.snapshot(w);
    reply_.snapshot(w);
    for (const auto &part : partitions_)
        part->snapshot(w);
    for (const auto &chan : channels_)
        chan->snapshot(w);
    w.u64(reply_retry_.size());
    for (const RingBuf<MemRequest> &retry : reply_retry_) {
        retry.snapshot(w, [](SnapshotWriter &sw,
                             const MemRequest &req) {
            snapshotMemRequest(sw, req);
        });
    }
    w.u64(delayed_.size());
    // HOTPATH-ALLOW(snapshot serialization, not a per-cycle walk)
    for (const std::deque<DelayedFill> &held : delayed_) {
        w.u64(held.size());
        for (const DelayedFill &f : held) {
            w.unit(f.ready);
            snapshotMemRequest(w, f.req);
        }
    }
    w.u64(inflight_);
    w.u64(injected_reads_);
    w.u64(injected_writes_);
    w.u64(delivered_fills_);
    w.u64(dropped_fills_);
}

void
MemorySystem::restore(SnapshotReader &r)
{
    r.section("memsys");
    fwd_.restore(r);
    reply_.restore(r);
    for (const auto &part : partitions_)
        part->restore(r);
    for (const auto &chan : channels_)
        chan->restore(r);
    const SimCtx ctx = memCtx();
    const std::uint64_t nretry = r.u64();
    SIM_CHECK(nretry == reply_retry_.size(), ctx,
              "snapshot holds " << nretry
                                << " reply-retry queues, model has "
                                << reply_retry_.size());
    for (RingBuf<MemRequest> &retry : reply_retry_) {
        retry.restore(r, [](SnapshotReader &sr) {
            return restoreMemRequest(sr);
        });
    }
    const std::uint64_t ndelayed = r.u64();
    SIM_CHECK(ndelayed == delayed_.size(), ctx,
              "snapshot holds " << ndelayed
                                << " delayed-fill queues, model has "
                                << delayed_.size());
    // HOTPATH-ALLOW(snapshot restore, not a per-cycle walk)
    for (std::deque<DelayedFill> &held : delayed_) {
        held.clear();
        const std::uint64_t m = r.u64();
        for (std::uint64_t i = 0; i < m; ++i) {
            DelayedFill f;
            f.ready = r.unit<Cycle>();
            f.req = restoreMemRequest(r);
            held.push_back(std::move(f));
        }
    }
    inflight_ = r.u64();
    injected_reads_ = r.u64();
    injected_writes_ = r.u64();
    delivered_fills_ = r.u64();
    dropped_fills_ = r.u64();
}

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

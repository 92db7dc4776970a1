#include "mem/dram.hpp"

#include <algorithm>

#include "sim/check.hpp"
#include "sim/snapshot.hpp"

namespace ckesim {

namespace {
constexpr std::uint64_t kClosedRow = ~0ULL;
} // namespace

DramChannel::DramChannel(const DramConfig &cfg, int line_bytes)
    : cfg_(cfg), line_bytes_(line_bytes),
      queue_(cfg.queue_depth),
      open_row_(static_cast<std::size_t>(cfg.banks_per_channel),
                kClosedRow),
      fills_(cfg.queue_depth + cfg.access_latency +
             cfg.row_hit_service + cfg.row_miss_penalty + 8)
{
}

int
DramChannel::bankOf(LineAddr line_addr) const
{
    const std::uint64_t lines_per_row =
        static_cast<std::uint64_t>(cfg_.row_bytes / line_bytes_);
    return static_cast<int>(
        (line_addr / lines_per_row) %
        static_cast<std::uint64_t>(cfg_.banks_per_channel));
}

std::uint64_t
DramChannel::rowOf(LineAddr line_addr) const
{
    const std::uint64_t lines_per_row =
        static_cast<std::uint64_t>(cfg_.row_bytes / line_bytes_);
    return line_addr /
           (lines_per_row *
            static_cast<std::uint64_t>(cfg_.banks_per_channel));
}

bool
DramChannel::tryEnqueue(const MemRequest &req, Cycle now)
{
    if (static_cast<int>(queue_.size()) >= cfg_.queue_depth)
        return false;
    Txn txn;
    txn.req = req;
    txn.bank = bankOf(req.line_addr);
    txn.row = rowOf(req.line_addr);
    txn.arrival = now;
    queue_.push_back(txn);
    return true;
}

void
DramChannel::tick(Cycle now)
{
    if (busy_until_ > now || queue_.empty())
        return;

    // FR-FCFS: prefer the oldest row-buffer hit in the lookahead
    // window; fall back to the overall oldest request.
    const int window =
        std::min<int>(cfg_.frfcfs_window,
                      static_cast<int>(queue_.size()));
    int pick = 0;
    bool row_hit = false;
    for (int i = 0; i < window; ++i) {
        const Txn &t = queue_[static_cast<std::size_t>(i)];
        if (open_row_[static_cast<std::size_t>(t.bank)] == t.row) {
            pick = i;
            row_hit = true;
            break;
        }
    }

    Txn txn = queue_[static_cast<std::size_t>(pick)];
    queue_.eraseAt(static_cast<std::size_t>(pick));

    int service = cfg_.row_hit_service;
    if (!row_hit) {
        service += cfg_.row_miss_penalty;
        ++row_misses_;
    } else {
        ++row_hits_;
    }
    open_row_[static_cast<std::size_t>(txn.bank)] = txn.row;
    busy_until_ = now + service;

    if (txn.req.kind != ReqKind::Writeback) {
        const Cycle ready = busy_until_ + cfg_.access_latency;
        fills_.push_back(Fill{ready, txn.req});
    }
}

void
DramChannel::checkInvariants(Cycle now, int channel_index) const
{
    SimCtx ctx;
    ctx.cycle = now;
    ctx.module = "dram";
    SIM_INVARIANT(queueLength() <= cfg_.queue_depth, ctx,
                  "channel " << channel_index << " queue occupancy "
                             << queueLength() << " exceeds depth "
                             << cfg_.queue_depth);
}

void
DramChannel::drainFills(Cycle now, std::vector<MemRequest> &out)
{
    // Fills complete in enqueue order within a channel: ready times are
    // monotonic because busy_until_ is monotonic.
    while (!fills_.empty() && fills_.front().ready <= now) {
        out.push_back(fills_.front().req);
        fills_.pop_front();
    }
}

void
DramChannel::snapshot(SnapshotWriter &w) const
{
    w.section("dram_channel");
    queue_.snapshot(w, [](SnapshotWriter &sw, const Txn &t) {
        snapshotMemRequest(sw, t.req);
        sw.i64(t.bank);
        sw.u64(t.row);
        sw.unit(t.arrival);
    });
    FieldWriter(w).put(open_row_);
    w.unit(busy_until_);
    fills_.snapshot(w, [](SnapshotWriter &sw, const Fill &f) {
        sw.unit(f.ready);
        snapshotMemRequest(sw, f.req);
    });
    w.u64(row_hits_);
    w.u64(row_misses_);
}

void
DramChannel::restore(SnapshotReader &r)
{
    r.section("dram_channel");
    queue_.restore(r, [](SnapshotReader &sr) {
        Txn t;
        t.req = restoreMemRequest(sr);
        t.bank = static_cast<int>(sr.i64());
        t.row = sr.u64();
        t.arrival = sr.unit<Cycle>();
        return t;
    });
    std::vector<std::uint64_t> rows;
    FieldReader(r).get(rows);
    SimCtx ctx;
    ctx.module = "dram";
    SIM_CHECK(rows.size() == open_row_.size(), ctx,
              "snapshot holds " << rows.size()
                                << " bank rows, channel has "
                                << open_row_.size());
    open_row_ = std::move(rows);
    busy_until_ = r.unit<Cycle>();
    fills_.restore(r, [](SnapshotReader &sr) {
        Fill f;
        f.ready = sr.unit<Cycle>();
        f.req = restoreMemRequest(sr);
        return f;
    });
    row_hits_ = r.u64();
    row_misses_ = r.u64();
}

} // namespace ckesim

/**
 * @file
 * Unit tests for the DRAM channel: queue capacity, row-buffer timing,
 * FR-FCFS reordering and writeback handling.
 */

#include <gtest/gtest.h>

#include "mem/dram.hpp"

namespace ckesim {
namespace {

DramConfig
cfg()
{
    DramConfig c;
    c.banks_per_channel = 4;
    c.row_bytes = 512;       // 8 lines of 64B per row
    c.access_latency = 50;
    c.row_hit_service = 2;
    c.row_miss_penalty = 10;
    c.frfcfs_window = 4;
    c.queue_depth = 8;
    return c;
}

MemRequest
read(LineAddr line)
{
    MemRequest r;
    r.line_addr = line;
    r.kind = ReqKind::ReadMiss;
    return r;
}

/** Take every fill whose data is available at @p now. */
std::vector<MemRequest>
takeFills(DramChannel &ch, Cycle now)
{
    std::vector<MemRequest> out;
    for (const MemRequest *f; (f = ch.readyFill(now)) != nullptr;
         ch.popFill())
        out.push_back(*f);
    return out;
}

TEST(DramChannel, QueueCapacity)
{
    DramChannel ch(cfg(), 64);
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_TRUE(ch.tryEnqueue(read(LineAddr{i}), Cycle{}));
    EXPECT_FALSE(ch.tryEnqueue(read(LineAddr{99}), Cycle{}));
    EXPECT_EQ(ch.freeSlots(), 0);
}

TEST(DramChannel, RowMissThenRowHitTiming)
{
    DramChannel ch(cfg(), 64);
    ch.tryEnqueue(read(LineAddr{0}), Cycle{}); // row 0, bank 0: miss
    ch.tryEnqueue(read(LineAddr{1}), Cycle{}); // same row -> hit
    ch.tick(Cycle{}); // starts first: service 2+10, busy until 12
    EXPECT_TRUE(ch.busy(Cycle{5}));
    ch.tick(Cycle{5}); // still busy, no-op
    EXPECT_TRUE(takeFills(ch, Cycle{12 + 50 - 1}).empty());
    EXPECT_EQ(takeFills(ch, Cycle{12 + 50}).size(), 1u);
    ch.tick(Cycle{12}); // second request: row hit, service 2
    EXPECT_EQ(takeFills(ch, Cycle{12 + 2 + 50}).size(), 1u);
    EXPECT_DOUBLE_EQ(ch.rowHitRate(), 0.5);
}

TEST(DramChannel, FrFcfsPrefersOpenRowWithinWindow)
{
    DramChannel ch(cfg(), 64);
    // Warm bank 0 row 0.
    ch.tryEnqueue(read(LineAddr{0}), Cycle{});
    ch.tick(Cycle{});
    const Cycle t1{20};
    // Queue: a row-miss (row 1 of bank 0 = line 32 with 4 banks x 8
    // lines) ahead of a row-hit (line 1, row 0).
    ch.tryEnqueue(read(LineAddr{32}), t1);
    ch.tryEnqueue(read(LineAddr{1}), t1);
    ch.tick(t1);
    // The row hit (line 1) should have been picked first.
    EXPECT_GT(ch.rowHitRate(), 0.4);
    EXPECT_EQ(ch.queueLength(), 1);
}

TEST(DramChannel, FcfsBeyondWindow)
{
    DramConfig c = cfg();
    c.frfcfs_window = 1; // degenerate: plain FCFS
    DramChannel ch(c, 64);
    ch.tryEnqueue(read(LineAddr{0}), Cycle{});
    ch.tick(Cycle{});
    ch.tryEnqueue(read(LineAddr{32}), Cycle{20}); // row miss, at head
    ch.tryEnqueue(read(LineAddr{1}), Cycle{20}); // row hit, behind
    ch.tick(Cycle{20});
    EXPECT_EQ(ch.queueLength(), 1);
    // FCFS picked the head (row miss): hit rate stays 0.
    EXPECT_DOUBLE_EQ(ch.rowHitRate(), 0.0);
}

TEST(DramChannel, WritebacksProduceNoFill)
{
    DramChannel ch(cfg(), 64);
    MemRequest wb;
    wb.line_addr = LineAddr{5};
    wb.kind = ReqKind::Writeback;
    ch.tryEnqueue(wb, Cycle{});
    ch.tick(Cycle{});
    EXPECT_TRUE(takeFills(ch, Cycle{1000}).empty());
    EXPECT_TRUE(ch.idle());
}

TEST(DramChannel, BanksTrackRowsIndependently)
{
    DramChannel ch(cfg(), 64);
    // Bank 0 row 0 (line 0) and bank 1 row 0 (line 8).
    ch.tryEnqueue(read(LineAddr{0}), Cycle{});
    ch.tick(Cycle{});
    Cycle t{100};
    ch.tryEnqueue(read(LineAddr{8}), t); // bank 1 cold -> miss
    ch.tick(t);
    t = Cycle{200};
    ch.tryEnqueue(read(LineAddr{1}), t); // bank 0 row 0 open -> hit
    ch.tryEnqueue(read(LineAddr{9}), t); // bank 1 row 0 open -> hit
    ch.tick(t);
    ch.tick(t + 2);
    EXPECT_DOUBLE_EQ(ch.rowHitRate(), 0.5);
}

TEST(DramChannel, IdleReflectsOutstandingWork)
{
    DramChannel ch(cfg(), 64);
    EXPECT_TRUE(ch.idle());
    ch.tryEnqueue(read(LineAddr{0}), Cycle{});
    EXPECT_FALSE(ch.idle());
    ch.tick(Cycle{});
    EXPECT_FALSE(ch.idle()); // fill not yet drained
    takeFills(ch, Cycle{10000});
    EXPECT_TRUE(ch.idle());
}

} // namespace
} // namespace ckesim

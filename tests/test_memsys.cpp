/**
 * @file
 * Integration tests for the shared memory subsystem: request routing,
 * round trips, backpressure and quiescence.
 */

#include <gtest/gtest.h>

#include "mem/memsys.hpp"

namespace ckesim {
namespace {

GpuConfig
cfg()
{
    return makeSmallConfig(2, 2);
}

MemRequest
read(LineAddr line, int sm, KernelId k = KernelId{0})
{
    MemRequest r;
    r.line_addr = line;
    r.sm_id = SmId{sm};
    r.kernel = k;
    r.kind = ReqKind::ReadMiss;
    return r;
}

/** The fills SM @p sm takes at @p now, through readyFill/popFill as
 *  the SM does. */
std::vector<MemRequest>
takeFills(MemorySystem &mem, int sm, Cycle now)
{
    std::vector<MemRequest> out;
    int budget = MemorySystem::kFillsPerCycle;
    while (const MemRequest *f = mem.readyFill(SmId{sm}, now, budget)) {
        const MemRequest fill = *f;
        if (mem.popFill(SmId{sm}, now, budget))
            out.push_back(fill);
    }
    return out;
}

TEST(MemorySystem, ReadRoundTrip)
{
    MemorySystem mem(cfg());
    ASSERT_TRUE(mem.injectFromSm(read(LineAddr{1234}, /*sm=*/1),
                                 Cycle{}));
    std::vector<MemRequest> got;
    for (Cycle t{}; t < Cycle{2000} && got.empty(); ++t) {
        mem.tick(t);
        got = takeFills(mem, 1, t);
    }
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].line_addr, LineAddr{1234});
    EXPECT_EQ(got[0].sm_id, SmId{1});
}

TEST(MemorySystem, ReplyGoesOnlyToRequester)
{
    MemorySystem mem(cfg());
    mem.injectFromSm(read(LineAddr{99}, 0), Cycle{});
    for (Cycle t{}; t < Cycle{2000}; ++t) {
        mem.tick(t);
        ASSERT_TRUE(takeFills(mem, 1, t).empty());
        if (!mem.quiescent() || t < Cycle{10})
            continue;
        break;
    }
}

TEST(MemorySystem, SecondAccessIsL2Hit)
{
    MemorySystem mem(cfg());
    mem.injectFromSm(read(LineAddr{77}, 0), Cycle{});
    Cycle t{};
    Cycle first_latency{};
    for (; t < Cycle{4000}; ++t) {
        mem.tick(t);
        if (!takeFills(mem, 0, t).empty()) {
            first_latency = t;
            break;
        }
    }
    ASSERT_GT(first_latency, Cycle{});

    const Cycle start2 = t + 10;
    mem.injectFromSm(read(LineAddr{77}, 0), start2);
    Cycle second_latency{};
    for (Cycle u = start2; u < start2 + 4000; ++u) {
        mem.tick(u);
        if (!takeFills(mem, 0, u).empty()) {
            second_latency = u - start2;
            break;
        }
    }
    ASSERT_GT(second_latency, Cycle{});
    EXPECT_LT(second_latency, first_latency);
    EXPECT_LT(mem.l2MissRate(), 1.0);
}

TEST(MemorySystem, WritesCompleteSilently)
{
    MemorySystem mem(cfg());
    MemRequest w;
    w.line_addr = LineAddr{50};
    w.sm_id = SmId{0};
    w.kind = ReqKind::WriteThru;
    ASSERT_TRUE(mem.injectFromSm(w, Cycle{}));
    for (Cycle t{}; t < Cycle{4000}; ++t) {
        mem.tick(t);
        ASSERT_TRUE(takeFills(mem, 0, t).empty());
        if (t > Cycle{500} && mem.quiescent())
            break;
    }
    EXPECT_TRUE(mem.quiescent());
}

TEST(MemorySystem, QuiescentLifecycle)
{
    MemorySystem mem(cfg());
    EXPECT_TRUE(mem.quiescent());
    mem.injectFromSm(read(LineAddr{7}, 0), Cycle{});
    EXPECT_FALSE(mem.quiescent());
    for (Cycle t{}; t < Cycle{4000}; ++t) {
        mem.tick(t);
        takeFills(mem, 0, t);
    }
    EXPECT_TRUE(mem.quiescent());
}

TEST(MemorySystem, BackpressureOnFloodedPort)
{
    GpuConfig c = cfg();
    c.icnt.input_queue_depth = 4;
    MemorySystem mem(c);
    // Flood one partition (consecutive chunk-aligned lines that hash
    // to the same partition).
    const int target =
        linePartition(LineAddr{}, c.numL2Partitions());
    int accepted = 0;
    for (LineAddr l{}; l < LineAddr{4096};
         l += kPartitionChunkLines) {
        if (linePartition(l, c.numL2Partitions()) != target)
            continue;
        if (mem.injectFromSm(read(l, 0), Cycle{}))
            ++accepted;
        else
            break;
    }
    // The port must eventually refuse (bounded queue).
    EXPECT_LE(accepted, c.icnt.input_queue_depth);
}

TEST(MemorySystem, RefusedReplyHoldsBackLaterReplies)
{
    // A reply that its SM's full port refuses waits behind earlier
    // refusals, and a later reply to another SM does not overtake it.
    GpuConfig c = cfg();
    c.icnt.input_queue_depth = 2;
    MemorySystem mem(c);
    std::vector<LineAddr> lines; // five lines of partition 0
    for (LineAddr l{}; lines.size() < 5; l += kPartitionChunkLines)
        if (linePartition(l, c.numL2Partitions()) == 0)
            lines.push_back(l);

    // Warm the L2 so that the replies below are hits, returned in
    // request order.
    Cycle t{};
    auto send = [&](const std::vector<MemRequest> &reads) {
        for (std::size_t i = 0; i < reads.size(); ++t) {
            if (mem.injectFromSm(reads[i], t))
                ++i;
            mem.tick(t);
        }
    };
    std::vector<MemRequest> warm;
    for (LineAddr l : lines)
        warm.push_back(read(l, 0));
    send(warm);
    for (; !mem.quiescent(); ++t) {
        mem.tick(t);
        takeFills(mem, 0, t);
    }

    // SM 0 reads four lines and takes nothing: two replies fill its
    // port and two are refused.
    send({read(lines[0], 0), read(lines[1], 0), read(lines[2], 0),
          read(lines[3], 0)});
    // SM 1's read to the same partition gets no reply while they wait.
    send({read(lines[4], 1)});
    for (const Cycle stop = t + 2000; t < stop; ++t) {
        mem.tick(t);
        ASSERT_TRUE(takeFills(mem, 1, t).empty()) << "cycle " << t;
    }
    EXPECT_FALSE(mem.quiescent());

    // Once SM 0 takes its fills, all four arrive in order, and SM 1's
    // reply follows.
    std::vector<LineAddr> sm0;
    std::vector<LineAddr> sm1;
    for (const Cycle stop = t + 2000; t < stop && !mem.quiescent();
         ++t) {
        mem.tick(t);
        for (const MemRequest &f : takeFills(mem, 0, t))
            sm0.push_back(f.line_addr);
        for (const MemRequest &f : takeFills(mem, 1, t))
            sm1.push_back(f.line_addr);
    }
    EXPECT_EQ(sm0, std::vector<LineAddr>(lines.begin(), lines.begin() + 4));
    EXPECT_EQ(sm1, std::vector<LineAddr>{lines[4]});
    EXPECT_TRUE(mem.quiescent());
}

TEST(MemorySystem, ManyRequestsAllReturn)
{
    MemorySystem mem(cfg());
    const int n = 64;
    int sent = 0;
    int received = 0;
    std::uint64_t next = 0;
    for (Cycle t{}; t < Cycle{20000} && received < n; ++t) {
        if (sent < n &&
            mem.injectFromSm(read(LineAddr{next * 16 + 3}, 0), t)) {
            ++sent;
            ++next;
        }
        mem.tick(t);
        received += static_cast<int>(
            takeFills(mem, 0, t).size());
    }
    EXPECT_EQ(received, n);
    EXPECT_TRUE(mem.quiescent());
}

} // namespace
} // namespace ckesim

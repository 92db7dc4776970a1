/**
 * @file
 * Unit tests for the in-order LSU: per-cycle request servicing, head
 * blocking on reservation failure, the host-event protocol and the
 * state walk over its line ring.
 */

#include <gtest/gtest.h>

#include "sim/snapshot.hpp"
#include "sm/lsu.hpp"

namespace ckesim {
namespace {

struct RecordingHost : LsuHost
{
    std::vector<std::pair<WarpSlot, Cycle>> hits;
    std::vector<std::pair<WarpSlot, bool>> drained;
    std::vector<LineAddr> lines; ///< serviced, in order
    int serviced = 0;
    int rsfails = 0;
    RsFailReason last_reason = RsFailReason::None;

    void
    lsuHitReturn(WarpSlot warp, KernelId, Cycle ready) override
    {
        hits.push_back({warp, ready});
    }
    void
    lsuEntryDrained(WarpSlot warp, KernelId, bool is_store) override
    {
        drained.push_back({warp, is_store});
    }
    void
    lsuAccessServiced(KernelId, LineAddr line, const L1Outcome &) override
    {
        lines.push_back(line);
        ++serviced;
    }
    void
    lsuReservationFailure(KernelId, RsFailReason r) override
    {
        ++rsfails;
        last_reason = r;
    }
};

L1dConfig
l1cfg(int mshrs = 8, int missq = 8)
{
    L1dConfig cfg;
    cfg.size_bytes = 64 * 4 * 16;
    cfg.line_bytes = 64;
    cfg.assoc = 4;
    cfg.num_mshrs = mshrs;
    cfg.mshr_merge = 4;
    cfg.miss_queue_depth = missq;
    cfg.hit_latency = 28;
    return cfg;
}

TEST(Lsu, QueueDepthEnforced)
{
    Lsu lsu(/*depth=*/2, /*entry_lines=*/4, /*hit_latency=*/28);
    EXPECT_TRUE(lsu.hasRoom());
    lsu.enqueue(WarpSlot{0}, KernelId{0}, false, {LineAddr{1}});
    lsu.enqueue(WarpSlot{1}, KernelId{0}, false, {LineAddr{2}});
    EXPECT_FALSE(lsu.hasRoom());
}

TEST(Lsu, OneRequestPerCycle)
{
    Lsu lsu(8, 4, 28);
    L1Dcache l1(l1cfg(), SmId{0});
    RecordingHost host;
    lsu.enqueue(WarpSlot{0}, KernelId{0}, false,
                {LineAddr{1}, LineAddr{2}, LineAddr{3}});
    for (Cycle t{}; t < Cycle{3}; ++t)
        EXPECT_FALSE(lsu.tick(t, l1, host));
    EXPECT_EQ(host.serviced, 3);
    ASSERT_EQ(host.drained.size(), 1u);
    EXPECT_EQ(host.drained[0].first, WarpSlot{0});
    EXPECT_TRUE(lsu.empty());
}

TEST(Lsu, HitSchedulesWakeAtHitLatency)
{
    Lsu lsu(8, 4, 28);
    L1Dcache l1(l1cfg(), SmId{0});
    RecordingHost host;
    // Warm the line.
    lsu.enqueue(WarpSlot{0}, KernelId{0}, false, {LineAddr{5}});
    lsu.tick(Cycle{}, l1, host);
    l1.popMissQueue();
    l1.fill(LineAddr{5});
    // Hit path.
    lsu.enqueue(WarpSlot{1}, KernelId{0}, false, {LineAddr{5}});
    lsu.tick(Cycle{10}, l1, host);
    ASSERT_EQ(host.hits.size(), 1u);
    EXPECT_EQ(host.hits[0].first, WarpSlot{1});
    EXPECT_EQ(host.hits[0].second, Cycle{10 + 28});
}

TEST(Lsu, HeadBlocksOnReservationFailure)
{
    Lsu lsu(8, 4, 28);
    L1Dcache l1(l1cfg(/*mshrs=*/1), SmId{0});
    RecordingHost host;
    lsu.enqueue(WarpSlot{0}, KernelId{0}, false, {LineAddr{1}});
    lsu.tick(Cycle{}, l1, host); // takes the only MSHR
    lsu.enqueue(WarpSlot{1}, KernelId{0}, false,
                {LineAddr{2}, LineAddr{3}});
    // Head retries; the queue does not advance.
    for (Cycle t{1}; t < Cycle{5}; ++t)
        EXPECT_TRUE(lsu.tick(t, l1, host));
    EXPECT_EQ(host.rsfails, 4);
    EXPECT_EQ(host.last_reason, RsFailReason::Mshr);
    EXPECT_EQ(lsu.size(), 1);
    // Free the MSHR: the head proceeds.
    l1.popMissQueue();
    l1.fill(LineAddr{1});
    EXPECT_FALSE(lsu.tick(Cycle{5}, l1, host));
    EXPECT_EQ(host.serviced, 2);
}

TEST(Lsu, InOrderAcrossKernels)
{
    // A blocked head from kernel 0 delays kernel 1 behind it: the
    // cross-kernel interference of Section 4.5.
    Lsu lsu(8, 4, 28);
    L1Dcache l1(l1cfg(/*mshrs=*/1), SmId{0});
    RecordingHost host;
    lsu.enqueue(WarpSlot{0}, KernelId{0}, false, {LineAddr{1}});
    lsu.tick(Cycle{}, l1, host);
    lsu.enqueue(WarpSlot{1}, KernelId{0}, false, {LineAddr{2}});
    lsu.enqueue(WarpSlot{2}, KernelId{1}, false, {LineAddr{3}});
    for (Cycle t{1}; t < Cycle{4}; ++t)
        lsu.tick(t, l1, host);
    // Kernel 1's entry has not been serviced.
    EXPECT_EQ(host.serviced, 1);
    EXPECT_EQ(lsu.size(), 2);
}

TEST(Lsu, StoreDrainSignalsStore)
{
    Lsu lsu(8, 4, 28);
    L1Dcache l1(l1cfg(), SmId{0});
    RecordingHost host;
    lsu.enqueue(WarpSlot{4}, KernelId{0}, /*is_store=*/true,
                {LineAddr{9}});
    lsu.tick(Cycle{}, l1, host);
    ASSERT_EQ(host.drained.size(), 1u);
    EXPECT_TRUE(host.drained[0].second);
    EXPECT_TRUE(host.hits.empty()); // stores never wake warps
}

TEST(Lsu, EmptyTickIsNotAStall)
{
    Lsu lsu(8, 4, 28);
    L1Dcache l1(l1cfg(), SmId{0});
    RecordingHost host;
    EXPECT_FALSE(lsu.tick(Cycle{}, l1, host));
    EXPECT_EQ(host.rsfails, 0);
}

std::vector<std::uint8_t>
lsuBytes(const Lsu &lsu)
{
    SnapshotWriter w;
    Lsu::state(w, lsu);
    return w.bytes();
}

/** Service @p lsu until it is empty: the lines in the order the L1D
 *  saw them (enough MSHRs that none fails reservation). */
std::vector<LineAddr>
serviceAll(Lsu &lsu)
{
    L1Dcache l1(l1cfg(/*mshrs=*/64, /*missq=*/64), SmId{0});
    RecordingHost host;
    for (Cycle t{}; !lsu.empty() && t < Cycle{1000}; ++t)
        EXPECT_FALSE(lsu.tick(t, l1, host));
    EXPECT_TRUE(lsu.empty());
    return host.lines;
}

std::vector<LineAddr>
linesFrom(std::uint64_t first, std::uint64_t count)
{
    std::vector<LineAddr> out;
    for (std::uint64_t i = 0; i < count; ++i)
        out.push_back(LineAddr{first + i});
    return out;
}

/** Restore @p from into a fresh LSU of the same shape; both must
 *  write the same bytes and then service the same lines in order.
 *  @return the lines @p from serviced */
std::vector<LineAddr>
expectRoundTrip(Lsu &from, int depth, int entry_lines)
{
    Lsu restored(depth, entry_lines, 28);
    const std::vector<std::uint8_t> bytes = lsuBytes(from);
    SnapshotReader r(bytes);
    Lsu::state(r, restored);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(lsuBytes(restored), bytes);
    const std::vector<LineAddr> serviced = serviceAll(from);
    EXPECT_EQ(serviceAll(restored), serviced);
    return serviced;
}

TEST(Lsu, ShortEntryAfterFullEntryRoundTrips)
{
    // A 32-line entry, part serviced, then a 1-line entry.
    Lsu lsu(4, 32, 28);
    L1Dcache l1(l1cfg(/*mshrs=*/64, /*missq=*/64), SmId{0});
    RecordingHost host;
    lsu.enqueue(WarpSlot{3}, KernelId{0}, false, linesFrom(100, 32));
    lsu.enqueue(WarpSlot{5}, KernelId{1}, true, {LineAddr{7}});
    for (Cycle t{}; t < Cycle{5}; ++t)
        lsu.tick(t, l1, host);
    ASSERT_EQ(lsu.size(), 2);
    std::vector<LineAddr> rest = linesFrom(105, 27);
    rest.push_back(LineAddr{7});
    EXPECT_EQ(expectRoundTrip(lsu, 4, 32), rest);
}

TEST(Lsu, WrappedLineRingRoundTrips)
{
    // Eight slots: A takes 0-2 and B 3-5; once A leaves, C's four
    // lines take slots 6, 7, 0 and 1.
    Lsu lsu(2, 4, 28);
    L1Dcache l1(l1cfg(/*mshrs=*/64, /*missq=*/64), SmId{0});
    RecordingHost host;
    lsu.enqueue(WarpSlot{0}, KernelId{0}, false, linesFrom(10, 3));
    lsu.enqueue(WarpSlot{1}, KernelId{0}, false, linesFrom(20, 3));
    for (Cycle t{}; t < Cycle{4}; ++t)
        lsu.tick(t, l1, host); // A's three lines and B's first
    ASSERT_EQ(lsu.size(), 1);
    lsu.enqueue(WarpSlot{2}, KernelId{1}, false, linesFrom(30, 4));
    EXPECT_EQ(host.lines, (std::vector<LineAddr>{
                              LineAddr{10}, LineAddr{11}, LineAddr{12},
                              LineAddr{20}}));
    std::vector<LineAddr> rest = linesFrom(21, 2);
    const std::vector<LineAddr> c = linesFrom(30, 4);
    rest.insert(rest.end(), c.begin(), c.end());
    EXPECT_EQ(expectRoundTrip(lsu, 2, 4), rest);
}

} // namespace
} // namespace ckesim

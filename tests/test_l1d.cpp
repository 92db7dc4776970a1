/**
 * @file
 * Unit tests for the L1D front-end: hit/miss paths, reservation
 * failures for each resource (line / MSHR / miss queue), WEWN write
 * semantics and fill wakeups.
 */

#include <gtest/gtest.h>

#include "mem/l1d.hpp"
#include "sim/rng.hpp"
#include "sim/snapshot.hpp"

namespace ckesim {
namespace {

L1dConfig
smallL1(int mshrs = 4, int missq = 4, int assoc = 2)
{
    L1dConfig cfg;
    cfg.size_bytes = 64 * assoc * 16; // 16 sets
    cfg.line_bytes = 64;
    cfg.assoc = assoc;
    cfg.num_mshrs = mshrs;
    cfg.mshr_merge = 2;
    cfg.miss_queue_depth = missq;
    return cfg;
}

L1Target
tgt(int warp, KernelId kernel = KernelId{0})
{
    L1Target t;
    t.warp_slot = WarpSlot{warp};
    t.kernel = kernel;
    return t;
}

/** Read access by kernel @p k (default 0); returns the outcome kind. */
L1Outcome::Kind
read(L1Dcache &l1, LineAddr line, KernelId k = KernelId{0})
{
    return l1.access(line, k, false, tgt(9, k), Cycle{}).kind;
}

/** Assert @p line fails with @p reason, twice: the second answer comes
 *  from the failure memo and must agree with the first. */
void
expectFailsTwice(L1Dcache &l1, LineAddr line, RsFailReason reason,
                 KernelId k = KernelId{0})
{
    for (int attempt = 0; attempt < 2; ++attempt) {
        const L1Outcome out = l1.access(line, k, false, tgt(9, k), Cycle{});
        ASSERT_EQ(out.kind, L1Outcome::Kind::RsFail) << attempt;
        ASSERT_EQ(out.fail, reason) << attempt;
    }
}

/** i-th line mapping to a given set. */
LineAddr
sameSetLine(const L1dConfig &cfg, int set, int i)
{
    int found = 0;
    for (LineAddr line{};; ++line) {
        if (xorSetIndex(line, cfg.numSets()) == set) {
            if (found == i)
                return line;
            ++found;
        }
    }
}

TEST(L1Dcache, MissThenFillThenHit)
{
    L1Dcache l1(smallL1(), SmId{0});
    const LineAddr line{100};

    L1Outcome out =
        l1.access(line, KernelId{0}, false, tgt(7), Cycle{});
    EXPECT_EQ(out.kind, L1Outcome::Kind::MissToL2);
    ASSERT_NE(l1.peekMissQueue(), nullptr);
    EXPECT_EQ(l1.peekMissQueue()->line_addr, line);
    l1.popMissQueue();

    const std::span<const L1Target> targets = l1.fill(line);
    ASSERT_EQ(targets.size(), 1u);
    EXPECT_EQ(targets[0].warp_slot, WarpSlot{7});

    out = l1.access(line, KernelId{0}, false, tgt(8), Cycle{1});
    EXPECT_EQ(out.kind, L1Outcome::Kind::Hit);
}

TEST(L1Dcache, SecondMissToSameLineMerges)
{
    L1Dcache l1(smallL1(), SmId{0});
    const LineAddr line{100};
    l1.access(line, KernelId{0}, false, tgt(1), Cycle{});
    const L1Outcome out =
        l1.access(line, KernelId{0}, false, tgt(2), Cycle{});
    EXPECT_EQ(out.kind, L1Outcome::Kind::MergedMshr);
    // Merge consumed no extra miss-queue entry.
    EXPECT_EQ(l1.missQueueSize(), 1);
    // Fill returns both targets.
    EXPECT_EQ(l1.fill(line).size(), 2u);
}

TEST(L1Dcache, MergeListFullIsMshrRsFail)
{
    L1Dcache l1(smallL1(), SmId{0}); // merge cap 2
    const LineAddr line{100};
    l1.access(line, KernelId{0}, false, tgt(1), Cycle{});
    l1.access(line, KernelId{0}, false, tgt(2), Cycle{});
    const L1Outcome out =
        l1.access(line, KernelId{0}, false, tgt(3), Cycle{});
    EXPECT_EQ(out.kind, L1Outcome::Kind::RsFail);
    EXPECT_EQ(out.fail, RsFailReason::Mshr);
}

TEST(L1Dcache, MshrTableFullIsRsFail)
{
    L1Dcache l1(smallL1(/*mshrs=*/2, /*missq=*/8), SmId{0});
    l1.access(LineAddr{1}, KernelId{0}, false, tgt(1), Cycle{});
    l1.access(LineAddr{2}, KernelId{0}, false, tgt(2), Cycle{});
    const L1Outcome out =
        l1.access(LineAddr{3}, KernelId{0}, false, tgt(3), Cycle{});
    EXPECT_EQ(out.kind, L1Outcome::Kind::RsFail);
    EXPECT_EQ(out.fail, RsFailReason::Mshr);
    EXPECT_EQ(l1.mshrsInUse(), 2);
}

TEST(L1Dcache, MissQueueFullIsRsFail)
{
    L1Dcache l1(smallL1(/*mshrs=*/8, /*missq=*/2), SmId{0});
    l1.access(LineAddr{1}, KernelId{0}, false, tgt(1), Cycle{});
    l1.access(LineAddr{2}, KernelId{0}, false, tgt(2), Cycle{});
    // Queue not drained: third new miss cannot enqueue.
    const L1Outcome out =
        l1.access(LineAddr{3}, KernelId{0}, false, tgt(3), Cycle{});
    EXPECT_EQ(out.kind, L1Outcome::Kind::RsFail);
    EXPECT_EQ(out.fail, RsFailReason::MissQueue);
}

TEST(L1Dcache, AllWaysReservedIsLineRsFail)
{
    const L1dConfig cfg = smallL1(/*mshrs=*/8, /*missq=*/8,
                                  /*assoc=*/2);
    L1Dcache l1(cfg, SmId{0});
    const LineAddr a = sameSetLine(cfg, 3, 0);
    const LineAddr b = sameSetLine(cfg, 3, 1);
    const LineAddr c = sameSetLine(cfg, 3, 2);
    EXPECT_EQ(l1.access(a, KernelId{0}, false, tgt(1), Cycle{}).kind,
              L1Outcome::Kind::MissToL2);
    EXPECT_EQ(l1.access(b, KernelId{0}, false, tgt(2), Cycle{}).kind,
              L1Outcome::Kind::MissToL2);
    const L1Outcome out =
        l1.access(c, KernelId{0}, false, tgt(3), Cycle{});
    EXPECT_EQ(out.kind, L1Outcome::Kind::RsFail);
    EXPECT_EQ(out.fail, RsFailReason::Line);

    // A fill frees the set again.
    l1.fill(a);
    EXPECT_EQ(l1.access(c, KernelId{0}, false, tgt(3), Cycle{1}).kind,
              L1Outcome::Kind::MissToL2);
}

TEST(L1Dcache, WriteEvictsAndForwards)
{
    L1Dcache l1(smallL1(), SmId{0});
    const LineAddr line{50};
    // Install via miss+fill.
    l1.access(line, KernelId{0}, false, tgt(1), Cycle{});
    l1.popMissQueue();
    l1.fill(line);

    // WEWN: the write invalidates the cached copy and enqueues a
    // write-through request; no MSHR is used.
    const int mshrs_before = l1.mshrsInUse();
    const L1Outcome out =
        l1.access(line, KernelId{0}, true, tgt(2), Cycle{1});
    EXPECT_EQ(out.kind, L1Outcome::Kind::WriteQueued);
    EXPECT_EQ(l1.mshrsInUse(), mshrs_before);
    ASSERT_NE(l1.peekMissQueue(), nullptr);
    EXPECT_EQ(l1.peekMissQueue()->kind, ReqKind::WriteThru);

    // The next read misses: write-evict dropped the line.
    EXPECT_EQ(
        l1.access(line, KernelId{0}, false, tgt(3), Cycle{2}).kind,
        L1Outcome::Kind::MissToL2);
}

TEST(L1Dcache, WriteNeedsOnlyMissQueue)
{
    L1Dcache l1(smallL1(/*mshrs=*/1, /*missq=*/2), SmId{0});
    // Exhaust the single MSHR.
    l1.access(LineAddr{1}, KernelId{0}, false, tgt(1), Cycle{});
    // A write still succeeds (no MSHR needed).
    EXPECT_EQ(
        l1.access(LineAddr{2}, KernelId{0}, true, tgt(2), Cycle{})
            .kind,
        L1Outcome::Kind::WriteQueued);
    // But a full miss queue rejects writes.
    EXPECT_EQ(
        l1.access(LineAddr{3}, KernelId{0}, true, tgt(3), Cycle{})
            .kind,
        L1Outcome::Kind::RsFail);
}

TEST(L1Dcache, RsFailLeavesNoSideEffects)
{
    L1Dcache l1(smallL1(/*mshrs=*/1, /*missq=*/8), SmId{0});
    l1.access(LineAddr{1}, KernelId{0}, false, tgt(1), Cycle{});
    const int missq = l1.missQueueSize();
    const L1Outcome out =
        l1.access(LineAddr{2}, KernelId{0}, false, tgt(2), Cycle{});
    EXPECT_EQ(out.kind, L1Outcome::Kind::RsFail);
    EXPECT_EQ(l1.missQueueSize(), missq);
    EXPECT_EQ(l1.mshrsInUse(), 1);
    // Retry succeeds after the fill.
    l1.popMissQueue();
    l1.fill(LineAddr{1});
    EXPECT_EQ(
        l1.access(LineAddr{2}, KernelId{0}, false, tgt(2), Cycle{1})
            .kind,
        L1Outcome::Kind::MissToL2);
}

// ---- reservation-failure memo ------------------------------------------

TEST(L1DcacheMemo, MissQueueFailureClearedByPop)
{
    L1Dcache l1(smallL1(/*mshrs=*/8, /*missq=*/2), SmId{0});
    read(l1, LineAddr{1});
    read(l1, LineAddr{2});
    expectFailsTwice(l1, LineAddr{3}, RsFailReason::MissQueue);
    l1.popMissQueue();
    EXPECT_EQ(read(l1, LineAddr{3}), L1Outcome::Kind::MissToL2);
}

TEST(L1DcacheMemo, MshrFailureClearedByFill)
{
    L1Dcache l1(smallL1(/*mshrs=*/2, /*missq=*/8), SmId{0});
    read(l1, LineAddr{1});
    read(l1, LineAddr{2});
    expectFailsTwice(l1, LineAddr{3}, RsFailReason::Mshr);
    l1.fill(LineAddr{1});
    EXPECT_EQ(read(l1, LineAddr{3}), L1Outcome::Kind::MissToL2);
}

TEST(L1DcacheMemo, MergeListFullClearedByFill)
{
    L1Dcache l1(smallL1(), SmId{0}); // merge cap 2
    const LineAddr line{100};
    read(l1, line);
    read(l1, line);
    expectFailsTwice(l1, line, RsFailReason::Mshr);
    l1.fill(line);
    EXPECT_EQ(read(l1, line), L1Outcome::Kind::Hit);
}

TEST(L1DcacheMemo, LineFailureClearedByFill)
{
    const L1dConfig cfg = smallL1(/*mshrs=*/8, /*missq=*/8);
    L1Dcache l1(cfg, SmId{0});
    read(l1, sameSetLine(cfg, 3, 0));
    read(l1, sameSetLine(cfg, 3, 1));
    expectFailsTwice(l1, sameSetLine(cfg, 3, 2), RsFailReason::Line);
    l1.fill(sameSetLine(cfg, 3, 0));
    EXPECT_EQ(read(l1, sameSetLine(cfg, 3, 2)),
              L1Outcome::Kind::MissToL2);
}

TEST(L1DcacheMemo, LineFailureClearedByWayRestrictionChanges)
{
    const L1dConfig cfg = smallL1(/*mshrs=*/8, /*missq=*/8);
    L1Dcache l1(cfg, SmId{0});
    // Way 0 reserved; kernel 0 may allocate only there.
    read(l1, sameSetLine(cfg, 3, 0));
    l1.restrictKernelWays(KernelId{0}, 0, 1);
    expectFailsTwice(l1, sameSetLine(cfg, 3, 1), RsFailReason::Line);
    l1.restrictKernelWays(KernelId{0}, 1, 1);
    EXPECT_EQ(read(l1, sameSetLine(cfg, 3, 1)),
              L1Outcome::Kind::MissToL2);

    l1.restrictKernelWays(KernelId{0}, 0, 1);
    expectFailsTwice(l1, sameSetLine(cfg, 3, 2), RsFailReason::Line);
    l1.clearWayRestrictions();
    // Both ways reserved now: still a line failure, but re-evaluated
    // (a bypass below proves the memo was dropped, not reused).
    expectFailsTwice(l1, sameSetLine(cfg, 3, 2), RsFailReason::Line);
    l1.setBypass(KernelId{0}, true);
    EXPECT_EQ(read(l1, sameSetLine(cfg, 3, 2)),
              L1Outcome::Kind::MissToL2);
}

TEST(L1DcacheMemo, QuotaFailureClearedBySetMshrQuota)
{
    L1Dcache l1(smallL1(/*mshrs=*/8, /*missq=*/8), SmId{0});
    l1.setMshrQuota(KernelId{0}, 1);
    read(l1, LineAddr{1});
    expectFailsTwice(l1, LineAddr{2}, RsFailReason::Mshr);
    l1.setMshrQuota(KernelId{0}, 0);
    EXPECT_EQ(read(l1, LineAddr{2}), L1Outcome::Kind::MissToL2);
}

TEST(L1DcacheMemo, ServicedAccessClearsMemo)
{
    // A set full of reserved lines fails on Line while MSHRs and the
    // miss queue have room; a serviced miss elsewhere then fills the
    // queue, so the same retry must now fail on MissQueue.
    const L1dConfig cfg = smallL1(/*mshrs=*/8, /*missq=*/3);
    L1Dcache l1(cfg, SmId{0});
    read(l1, sameSetLine(cfg, 3, 0));
    read(l1, sameSetLine(cfg, 3, 1));
    expectFailsTwice(l1, sameSetLine(cfg, 3, 2), RsFailReason::Line);
    EXPECT_EQ(read(l1, sameSetLine(cfg, 5, 0)), L1Outcome::Kind::MissToL2);
    expectFailsTwice(l1, sameSetLine(cfg, 3, 2), RsFailReason::MissQueue);
}

TEST(L1DcacheMemo, RestoreClearsMemo)
{
    L1Dcache l1(smallL1(/*mshrs=*/1, /*missq=*/8), SmId{0});
    SnapshotWriter empty;
    L1Dcache::state(empty, std::as_const(l1));
    read(l1, LineAddr{1});
    expectFailsTwice(l1, LineAddr{2}, RsFailReason::Mshr);
    SnapshotReader r(empty.bytes());
    L1Dcache::state(r, l1);
    EXPECT_EQ(read(l1, LineAddr{2}), L1Outcome::Kind::MissToL2);
}

TEST(L1DcacheMemo, OtherLineKernelOrWriteNeverReusesMemo)
{
    L1Dcache l1(smallL1(/*mshrs=*/8, /*missq=*/8), SmId{0});
    l1.setMshrQuota(KernelId{0}, 1);
    read(l1, LineAddr{1});
    // Kernel 0 is at its quota: a new line fails...
    expectFailsTwice(l1, LineAddr{2}, RsFailReason::Mshr);
    // ...but its outstanding line merges,
    EXPECT_EQ(read(l1, LineAddr{1}), L1Outcome::Kind::MergedMshr);
    expectFailsTwice(l1, LineAddr{2}, RsFailReason::Mshr);
    // kernel 1 has no quota,
    EXPECT_EQ(read(l1, LineAddr{2}, KernelId{1}),
              L1Outcome::Kind::MissToL2);
    expectFailsTwice(l1, LineAddr{3}, RsFailReason::Mshr);
    // and a store needs only the miss queue.
    EXPECT_EQ(
        l1.access(LineAddr{3}, KernelId{0}, true, tgt(9), Cycle{}).kind,
        L1Outcome::Kind::WriteQueued);
}

TEST(L1DcacheMemo, RandomOpsMatchMemoFreeReplica)
{
    // After every random mutation, a replica restored from a snapshot
    // (so its memo is empty) must answer each access exactly as the
    // memoizing cache does and end in the same state.
    const L1dConfig cfg = smallL1(/*mshrs=*/4, /*missq=*/3);
    L1Dcache l1(cfg, SmId{0});
    Rng rng(0x6d656d6fULL); // "memo"
    // Three lines contend for one 2-way set; two more share another.
    const std::vector<LineAddr> pool{
        sameSetLine(cfg, 3, 0), sameSetLine(cfg, 3, 1),
        sameSetLine(cfg, 3, 2), sameSetLine(cfg, 5, 0),
        sameSetLine(cfg, 5, 1)};
    std::vector<LineAddr> outstanding;
    const auto state = [](const L1Dcache &c) {
        SnapshotWriter w;
        L1Dcache::state(w, c);
        return w.take();
    };
    int failures = 0;
    for (int op = 0; op < 4000; ++op) {
        const std::uint64_t pick = rng.nextBelow(100);
        const KernelId k{static_cast<int>(rng.nextBelow(2))};
        if (pick < 70) {
            const LineAddr line = pool[rng.nextBelow(pool.size())];
            const bool write = rng.nextBelow(5) == 0;
            const std::vector<std::uint8_t> before = state(l1);
            L1Dcache replica(cfg, SmId{0});
            SnapshotReader r(before);
            L1Dcache::state(r, replica);
            const L1Outcome got =
                l1.access(line, k, write, tgt(1, k), Cycle{});
            const L1Outcome want =
                replica.access(line, k, write, tgt(1, k), Cycle{});
            ASSERT_EQ(got.kind, want.kind) << "op " << op;
            ASSERT_EQ(got.fail, want.fail) << "op " << op;
            ASSERT_EQ(state(l1), state(replica)) << "op " << op;
            failures += got.serviced() ? 0 : 1;
            if (got.kind == L1Outcome::Kind::MissToL2)
                outstanding.push_back(line);
        } else if (pick < 80) {
            if (l1.peekMissQueue() != nullptr)
                l1.popMissQueue();
        } else if (pick < 92) {
            if (!outstanding.empty()) {
                const std::size_t i = static_cast<std::size_t>(
                    rng.nextBelow(outstanding.size()));
                l1.fill(outstanding[i]);
                outstanding.erase(outstanding.begin() +
                                  static_cast<std::ptrdiff_t>(i));
            }
        } else if (pick < 95) {
            l1.setMshrQuota(k, static_cast<int>(rng.nextBelow(3)));
        } else if (pick < 97) {
            l1.setBypass(k, rng.nextBelow(2) == 0);
        } else if (pick < 99) {
            l1.restrictKernelWays(k, static_cast<int>(rng.nextBelow(2)), 1);
        } else {
            l1.clearWayRestrictions();
        }
    }
    EXPECT_GT(failures, 500); // the memo was actually exercised
}

} // namespace
} // namespace ckesim

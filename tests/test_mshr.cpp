/**
 * @file
 * Unit tests for the MSHR table: allocation, merging, capacity and
 * release semantics (including the released span's lifetime), plus
 * flat-table-vs-std::map oracle equivalence under randomized and
 * collision-heavy workloads (DESIGN.md §14.2).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "mem/mshr.hpp"
#include "sim/rng.hpp"
#include "sim/snapshot.hpp"

namespace ckesim {
namespace {

using IntMshr = MshrTable<int>;

/**
 * Mirror of the table's multiply-shift home-bucket computation, used
 * to construct collision-heavy address sets. @p capacity must match
 * the table's construction argument.
 */
std::size_t
oracleHome(LineAddr line, int capacity)
{
    std::size_t want =
        static_cast<std::size_t>(capacity > 0 ? capacity : 1) * 2;
    std::size_t n = 8;
    int log2n = 3;
    while (n < want) {
        n <<= 1;
        ++log2n;
    }
    const std::uint64_t h =
        static_cast<std::uint64_t>(line.get()) * 0x9E3779B97F4A7C15ULL;
    return static_cast<std::size_t>(h >> (64 - log2n));
}

/** First @p count line addresses whose home bucket is @p bucket. */
std::vector<LineAddr>
collidingLines(int capacity, std::size_t bucket, std::size_t count)
{
    std::vector<LineAddr> out;
    for (std::int64_t v = 1; out.size() < count; ++v)
        if (oracleHome(LineAddr{v}, capacity) == bucket)
            out.push_back(LineAddr{v});
    return out;
}

/** A released span's targets, copied out. */
std::vector<int>
released(std::span<const int> targets)
{
    return {targets.begin(), targets.end()};
}

/** Collect a table's full contents through forEach, keyed by line. */
std::map<std::int64_t, std::vector<int>>
dumpTable(const IntMshr &t)
{
    std::map<std::int64_t, std::vector<int>> out;
    t.forEach([&](LineAddr line, const std::vector<int> &targets) {
        out[line.get()] = targets;
    });
    return out;
}

TEST(Mshr, AllocateAndPending)
{
    IntMshr t(4, 2);
    EXPECT_FALSE(t.pending(LineAddr{10}));
    EXPECT_TRUE(t.hasFree());
    t.allocate(LineAddr{10}, 1);
    EXPECT_TRUE(t.pending(LineAddr{10}));
    EXPECT_EQ(t.size(), 1);
}

TEST(Mshr, MergeCollectsTargets)
{
    IntMshr t(4, 4);
    t.allocate(LineAddr{10}, 1);
    EXPECT_EQ(t.tryMerge(LineAddr{10}, 2), IntMshr::MergeResult::Merged);
    EXPECT_EQ(t.tryMerge(LineAddr{10}, 3), IntMshr::MergeResult::Merged);
    EXPECT_EQ(released(t.release(LineAddr{10})),
              (std::vector<int>{1, 2, 3}));
    EXPECT_FALSE(t.pending(LineAddr{10}));
    EXPECT_EQ(t.size(), 0);
}

TEST(Mshr, MergeCapEnforced)
{
    IntMshr t(4, 2);
    EXPECT_EQ(t.tryMerge(LineAddr{10}, 1), IntMshr::MergeResult::NoEntry);
    t.allocate(LineAddr{10}, 1);
    EXPECT_EQ(t.tryMerge(LineAddr{10}, 2), IntMshr::MergeResult::Merged);
    EXPECT_EQ(t.tryMerge(LineAddr{10}, 3), IntMshr::MergeResult::Full);
    // A refused merge leaves the entry as it was.
    EXPECT_EQ(released(t.release(LineAddr{10})),
              (std::vector<int>{1, 2}));
}

TEST(Mshr, CapacityEnforced)
{
    IntMshr t(2, 8);
    t.allocate(LineAddr{1}, 0);
    t.allocate(LineAddr{2}, 0);
    EXPECT_FALSE(t.hasFree());
    EXPECT_THROW(t.allocate(LineAddr{3}, 0), SimError);
    t.release(LineAddr{1});
    EXPECT_TRUE(t.hasFree());
}

TEST(Mshr, ReleaseWithoutEntryRefused)
{
    IntMshr t(4, 4);
    t.allocate(LineAddr{1}, 0);
    t.release(LineAddr{1});
    EXPECT_THROW(t.release(LineAddr{1}), SimError);
}

TEST(Mshr, IndependentLines)
{
    IntMshr t(8, 8);
    t.allocate(LineAddr{1}, 100);
    t.allocate(LineAddr{2}, 200);
    EXPECT_EQ(released(t.release(LineAddr{2})), std::vector<int>{200});
    EXPECT_TRUE(t.pending(LineAddr{1}));
    EXPECT_EQ(released(t.release(LineAddr{1})), std::vector<int>{100});
    EXPECT_TRUE(t.empty());
}

TEST(Mshr, Table1Capacity)
{
    // The paper's configuration: 128 MSHRs per SM, 8 requests each.
    IntMshr t(128, 8);
    for (int i = 0; i < 128; ++i)
        t.allocate(LineAddr{i}, i);
    EXPECT_FALSE(t.hasFree());
    for (int m = 1; m < 8; ++m)
        EXPECT_EQ(t.tryMerge(LineAddr{5}, m), IntMshr::MergeResult::Merged);
    EXPECT_EQ(t.tryMerge(LineAddr{5}, 8), IntMshr::MergeResult::Full);
}

TEST(Mshr, ReleasedSpanOutlivesOtherLinesTraffic)
{
    // Both fill paths read the released span while they go on to touch
    // the table's other lines; only the next release may reuse it.
    // Collision-heavy lines make the traffic probe, shift and grow the
    // merge lists around the retired slot.
    constexpr int kCapacity = 8;
    IntMshr t(kCapacity, 6);
    const std::vector<LineAddr> chain = collidingLines(kCapacity, 2, 5);
    t.allocate(chain[0], 1);
    t.tryMerge(chain[0], 2);
    t.tryMerge(chain[0], 3);
    t.allocate(chain[1], 10);
    const std::span<const int> first = t.release(chain[0]);

    for (std::size_t i = 2; i < chain.size(); ++i) {
        t.allocate(chain[i], static_cast<int>(i) * 10);
        for (int m = 1; m < 6; ++m) {
            ASSERT_EQ(t.tryMerge(chain[i], static_cast<int>(i) * 10 + m),
                      IntMshr::MergeResult::Merged);
        }
    }
    t.allocate(chain[0], 100); // the released line again
    ASSERT_EQ(t.tryMerge(chain[1], 11), IntMshr::MergeResult::Merged);
    EXPECT_EQ(released(first), (std::vector<int>{1, 2, 3}));

    // The next release hands over its own targets.
    EXPECT_EQ(released(t.release(chain[1])), (std::vector<int>{10, 11}));
    EXPECT_EQ(released(t.release(chain[0])), std::vector<int>{100});
}

// ---- flat-table-vs-map oracle equivalence -------------------------------

TEST(MshrOracle, RandomizedOpsMatchMapOracle)
{
    // Drive the open-addressing table and a std::map oracle with the
    // same operation stream; all observable state must stay equal.
    constexpr int kCapacity = 16;
    constexpr int kMaxMerge = 4;
    IntMshr t(kCapacity, kMaxMerge);
    std::map<std::int64_t, std::vector<int>> oracle;
    SimCtx ctx;
    ctx.module = "test_mshr";

    // Address universe: a sequential run plus a collision-heavy set
    // that all hash to one home bucket, so linear-probe chains and
    // backward-shift deletion are exercised constantly.
    std::vector<LineAddr> lines;
    for (std::int64_t v = 1000; v < 1024; ++v)
        lines.push_back(LineAddr{v});
    for (LineAddr l : collidingLines(kCapacity, 7, 12))
        lines.push_back(l);

    Rng rng(0x5EEDBEEFULL);
    int next_target = 0;
    for (int step = 0; step < 5000; ++step) {
        const LineAddr line =
            lines[static_cast<std::size_t>(rng.nextBelow(lines.size()))];
        const auto it = oracle.find(line.get());
        const std::uint64_t roll = rng.nextBelow(100);

        ASSERT_EQ(t.pending(line), it != oracle.end());
        if (roll < 70) {
            // Allocate-or-merge through the single-probe path.
            const IntMshr::MergeResult got = t.tryMerge(line, next_target);
            if (it == oracle.end()) {
                ASSERT_EQ(got, IntMshr::MergeResult::NoEntry);
                if (oracle.size() <
                    static_cast<std::size_t>(kCapacity)) {
                    ASSERT_TRUE(t.hasFree());
                    t.allocate(line, next_target);
                    oracle[line.get()] = {next_target};
                    ++next_target;
                } else {
                    ASSERT_FALSE(t.hasFree());
                }
            } else if (static_cast<int>(it->second.size()) >=
                       kMaxMerge) {
                ASSERT_EQ(got, IntMshr::MergeResult::Full);
            } else {
                ASSERT_EQ(got, IntMshr::MergeResult::Merged);
                it->second.push_back(next_target);
                ++next_target;
            }
        } else if (it != oracle.end()) {
            // Fill: merged targets come back in merge order, the
            // allocating one first.
            ASSERT_EQ(released(t.release(line)), it->second);
            oracle.erase(it);
        }

        ASSERT_EQ(t.size(), static_cast<int>(oracle.size()));
        ASSERT_EQ(t.empty(), oracle.empty());
        t.checkBalance(ctx);
    }
    ASSERT_EQ(dumpTable(t), oracle);
}

TEST(MshrOracle, CollisionChainSurvivesMiddleDeletions)
{
    // All entries share one home bucket: deleting out of the middle of
    // the probe chain must backward-shift so later entries stay
    // findable (no tombstones).
    constexpr int kCapacity = 8;
    IntMshr t(kCapacity, 2);
    const std::vector<LineAddr> chain =
        collidingLines(kCapacity, 3, 6);
    for (std::size_t i = 0; i < chain.size(); ++i)
        t.allocate(chain[i], static_cast<int>(i));

    // Release the middle pair, then the head, in that order.
    EXPECT_EQ(released(t.release(chain[2])), std::vector<int>{2});
    EXPECT_EQ(released(t.release(chain[3])), std::vector<int>{3});
    EXPECT_EQ(released(t.release(chain[0])), std::vector<int>{0});
    EXPECT_FALSE(t.pending(chain[0]));
    EXPECT_FALSE(t.pending(chain[2]));
    EXPECT_FALSE(t.pending(chain[3]));
    // Survivors must still resolve through the compacted chain.
    EXPECT_TRUE(t.pending(chain[1]));
    EXPECT_TRUE(t.pending(chain[4]));
    EXPECT_TRUE(t.pending(chain[5]));
    // Reinsert into the freed space and verify nothing was orphaned.
    t.allocate(chain[0], 100);
    EXPECT_EQ(t.size(), 4);
    const auto dump = dumpTable(t);
    EXPECT_EQ(dump.size(), 4u);
    EXPECT_EQ(dump.at(chain[0].get()), std::vector<int>{100});
    EXPECT_EQ(dump.at(chain[4].get()), std::vector<int>{4});
    EXPECT_EQ(dump.at(chain[5].get()), std::vector<int>{5});
}

TEST(MshrOracle, SnapshotRoundTripCollisionHeavy)
{
    // Snapshot payload is sorted by line (insertion-history
    // independent): a table rebuilt from it must dump identically and
    // re-serialize to the same bytes.
    constexpr int kCapacity = 8;
    IntMshr t(kCapacity, 4);
    const std::vector<LineAddr> chain =
        collidingLines(kCapacity, 5, 5);
    for (std::size_t i = 0; i < chain.size(); ++i) {
        t.allocate(chain[i], static_cast<int>(i) * 10);
        t.tryMerge(chain[i], static_cast<int>(i) * 10 + 1);
    }
    t.release(chain[1]); // leave a backward-shifted chain behind

    const auto walkInt = [](auto &ar, auto &v) { ar.i64(v); };
    SnapshotWriter w;
    IntMshr::state(w, std::as_const(t), walkInt);

    IntMshr back(kCapacity, 4);
    SnapshotReader r(w.bytes());
    IntMshr::state(r, back, walkInt);

    EXPECT_EQ(dumpTable(back), dumpTable(t));
    EXPECT_EQ(back.size(), t.size());
    EXPECT_EQ(back.totalAllocated(), t.totalAllocated());
    EXPECT_EQ(back.totalReleased(), t.totalReleased());

    SnapshotWriter w2;
    IntMshr::state(w2, std::as_const(back), walkInt);
    EXPECT_EQ(w.bytes(), w2.bytes());
}

} // namespace
} // namespace ckesim

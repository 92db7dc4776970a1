/**
 * @file
 * Unit tests for the fixed-capacity ring buffer behind the per-cycle
 * queues (DESIGN.md §14): wrap-around FIFO order, growth refusal at
 * capacity, snapshot round-trips, and a randomized std::deque oracle.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/check.hpp"
#include "sim/ringbuf.hpp"
#include "sim/rng.hpp"
#include "sim/snapshot.hpp"

namespace ckesim {
namespace {

/** The buffer's elements, oldest first. */
template <typename T>
std::vector<T>
contents(const RingBuf<T> &rb)
{
    std::vector<T> out;
    for (std::size_t i = 0; i < rb.size(); ++i)
        out.push_back(rb[i]);
    return out;
}

TEST(RingBuf, FifoOrderAcrossWrapAround)
{
    RingBuf<int> rb(4);
    for (int i = 0; i < 4; ++i)
        rb.push_back(i);
    // Pop two, push two: head wraps past the backing store edge.
    rb.pop_front();
    rb.pop_front();
    rb.push_back(4);
    rb.push_back(5);
    EXPECT_EQ(rb.size(), 4u);
    EXPECT_EQ(rb.front(), 2);
    EXPECT_EQ(contents(rb), (std::vector<int>{2, 3, 4, 5}));
}

TEST(RingBuf, GrowthRefusalAtCapacity)
{
    RingBuf<int> rb(2);
    rb.push_back(1);
    rb.push_back(2);
    EXPECT_THROW(rb.push_back(3), SimError);
    // The refused push must not have corrupted the contents.
    EXPECT_EQ(contents(rb), (std::vector<int>{1, 2}));
}

TEST(RingBuf, ZeroCapacityRefusesEverything)
{
    RingBuf<int> rb(0);
    EXPECT_TRUE(rb.empty());
    EXPECT_THROW(rb.push_back(1), SimError);
}

TEST(RingBuf, PopOnEmptyRefused)
{
    RingBuf<int> rb(2);
    EXPECT_THROW(rb.pop_front(), SimError);
}

TEST(RingBuf, EraseAtPreservesSurvivorOrder)
{
    RingBuf<int> rb(6);
    // Wrap first so the erase shift crosses the physical edge.
    for (int i = 0; i < 6; ++i)
        rb.push_back(i);
    rb.pop_front();
    rb.pop_front();
    rb.pop_front();
    rb.push_back(6);
    rb.push_back(7); // logical: 3 4 5 6 7
    rb.eraseAt(2);   // drop 5
    EXPECT_EQ(contents(rb), (std::vector<int>{3, 4, 6, 7}));
    rb.eraseAt(0); // drop the head
    EXPECT_EQ(contents(rb), (std::vector<int>{4, 6, 7}));
}

TEST(RingBuf, SnapshotRoundTripPreservesWrappedState)
{
    RingBuf<std::uint64_t> rb(5);
    for (std::uint64_t i = 0; i < 5; ++i)
        rb.push_back(i);
    rb.pop_front();
    rb.pop_front();
    rb.push_back(100);
    rb.push_back(101); // logical: 2 3 4 100 101

    using Ring = RingBuf<std::uint64_t>;
    const auto walkU64 = [](auto &ar, auto &v) { ar.u64(v); };
    SnapshotWriter w;
    Ring::state(w, std::as_const(rb), walkU64);

    Ring back(5);
    back.push_back(999); // a restore must clear stale content
    SnapshotReader r(w.bytes());
    Ring::state(r, back, walkU64);

    EXPECT_EQ(contents(back),
              (std::vector<std::uint64_t>{2, 3, 4, 100, 101}));

    // Re-serializing the restored buffer yields identical bytes —
    // the fingerprint gate every converted queue relies on.
    SnapshotWriter w2;
    Ring::state(w2, std::as_const(back), walkU64);
    EXPECT_EQ(w.bytes(), w2.bytes());
}

TEST(RingBuf, RestoreRefusesOversizedSnapshot)
{
    using Ring = RingBuf<std::uint64_t>;
    const auto walkU64 = [](auto &ar, auto &v) { ar.u64(v); };
    Ring big(4);
    for (std::uint64_t i = 0; i < 4; ++i)
        big.push_back(i);
    SnapshotWriter w;
    Ring::state(w, std::as_const(big), walkU64);
    Ring small(2);
    SnapshotReader r(w.bytes());
    EXPECT_THROW(Ring::state(r, small, walkU64), SimError);
}

TEST(RingBuf, DequeOracleRandomizedOps)
{
    // Drive both containers with the same operation stream and
    // require identical observable state after every step.
    RingBuf<int> rb(8);
    std::deque<int> oracle;
    Rng rng(0xCAFEF00DULL);
    int next_val = 0;
    for (int step = 0; step < 2000; ++step) {
        const std::uint64_t roll = rng.next() % 100;
        if (roll < 45) {
            if (oracle.size() < 8) {
                rb.push_back(next_val);
                oracle.push_back(next_val);
                ++next_val;
            }
        } else if (roll < 80) {
            if (!oracle.empty()) {
                rb.pop_front();
                oracle.pop_front();
            }
        } else if (!oracle.empty()) {
            const std::size_t at =
                static_cast<std::size_t>(rng.next()) % oracle.size();
            rb.eraseAt(at);
            oracle.erase(oracle.begin() +
                         static_cast<std::ptrdiff_t>(at));
        }

        ASSERT_EQ(rb.size(), oracle.size());
        ASSERT_EQ(rb.empty(), oracle.empty());
        if (!oracle.empty()) {
            ASSERT_EQ(rb.front(), oracle.front());
        }
        // Random access in the deque's order.
        const std::vector<int> want(oracle.begin(), oracle.end());
        ASSERT_EQ(contents(rb), want);
    }
}

} // namespace
} // namespace ckesim

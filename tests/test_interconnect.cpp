/**
 * @file
 * Unit tests for the crossbar model: zero-load latency, flit
 * serialization at destination ports, queue-depth backpressure and
 * FIFO delivery through a port's ready head.
 */

#include <gtest/gtest.h>

#include "mem/interconnect.hpp"

namespace ckesim {
namespace {

IcntConfig
cfgOf(int latency, int depth)
{
    IcntConfig c;
    c.latency = latency;
    c.input_queue_depth = depth;
    return c;
}

MemRequest
req(LineAddr line)
{
    MemRequest r;
    r.line_addr = line;
    return r;
}

/** Take up to @p max_count packets delivered to @p dest by @p now,
 *  through the port's ready head, as the memory system does. */
std::vector<MemRequest>
take(Crossbar &x, int dest, Cycle now, int max_count)
{
    std::vector<MemRequest> out;
    for (const MemRequest *head;
         static_cast<int>(out.size()) < max_count &&
         (head = x.readyHead(dest, now)) != nullptr;
         x.pop(dest))
        out.push_back(*head);
    return out;
}

TEST(Crossbar, DeliversAfterLatencyPlusSerialization)
{
    Crossbar x(2, cfgOf(4, 8));
    ASSERT_TRUE(
        x.tryInject(0, /*flits=*/1, req(LineAddr{1}), Cycle{10}));
    // Ready at 10 + 4 (latency) + 1 (flit) = 15.
    EXPECT_TRUE(take(x, 0, Cycle{14}, 8).empty());
    const auto out = take(x, 0, Cycle{15}, 8);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].line_addr, LineAddr{1});
}

TEST(Crossbar, PortSerializesFlits)
{
    Crossbar x(1, cfgOf(0, 8));
    x.tryInject(0, 4, req(LineAddr{1}), Cycle{}); // ready at 4
    x.tryInject(0, 4, req(LineAddr{2}), Cycle{}); // ready at 8
    EXPECT_EQ(take(x, 0, Cycle{4}, 8).size(), 1u);
    EXPECT_EQ(take(x, 0, Cycle{7}, 8).size(), 0u);
    EXPECT_EQ(take(x, 0, Cycle{8}, 8).size(), 1u);
}

TEST(Crossbar, IndependentPorts)
{
    Crossbar x(2, cfgOf(0, 8));
    x.tryInject(0, 4, req(LineAddr{1}), Cycle{});
    x.tryInject(1, 4, req(LineAddr{2}), Cycle{});
    // Port 1 is not delayed by port 0's serialization.
    EXPECT_EQ(take(x, 1, Cycle{4}, 8).size(), 1u);
}

TEST(Crossbar, QueueDepthRejectsInjection)
{
    Crossbar x(1, cfgOf(0, 2));
    EXPECT_TRUE(x.tryInject(0, 1, req(LineAddr{1}), Cycle{}));
    EXPECT_TRUE(x.tryInject(0, 1, req(LineAddr{2}), Cycle{}));
    EXPECT_FALSE(x.tryInject(0, 1, req(LineAddr{3}), Cycle{}));
    EXPECT_EQ(x.queueLength(0), 2);
    // Taking the head frees capacity.
    take(x, 0, Cycle{100}, 8);
    EXPECT_TRUE(x.tryInject(0, 1, req(LineAddr{3}), Cycle{100}));
}

TEST(Crossbar, DrainRespectsMaxCount)
{
    Crossbar x(1, cfgOf(0, 8));
    for (std::uint64_t i = 0; i < 4; ++i)
        x.tryInject(0, 1, req(LineAddr{i}), Cycle{});
    EXPECT_EQ(take(x, 0, Cycle{100}, 2).size(), 2u);
    EXPECT_EQ(take(x, 0, Cycle{100}, 8).size(), 2u);
}

TEST(Crossbar, FifoOrderPerPort)
{
    Crossbar x(1, cfgOf(0, 8));
    for (std::uint64_t i = 0; i < 4; ++i)
        x.tryInject(0, 1, req(LineAddr{i}), Cycle{});
    const auto out = take(x, 0, Cycle{100}, 8);
    ASSERT_EQ(out.size(), 4u);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(out[i].line_addr, LineAddr{i});
}

TEST(Crossbar, IdlePortRecoversWireAfterGap)
{
    Crossbar x(1, cfgOf(2, 8));
    x.tryInject(0, 1, req(LineAddr{1}), Cycle{}); // ready at 3
    take(x, 0, Cycle{3}, 8);
    // A much later injection sees only latency+flit, not stale
    // next_free.
    x.tryInject(0, 1, req(LineAddr{2}), Cycle{100});
    EXPECT_TRUE(take(x, 0, Cycle{102}, 8).empty());
    EXPECT_EQ(take(x, 0, Cycle{103}, 8).size(), 1u);
}

} // namespace
} // namespace ckesim

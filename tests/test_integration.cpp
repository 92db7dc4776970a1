/**
 * @file
 * End-to-end smoke tests: isolated kernels execute and produce sane
 * statistics; a concurrent pair under WS-DMIL runs to completion.
 */

#include <gtest/gtest.h>

#include "gpu.hpp"
#include "kernels/workload.hpp"
#include "metrics/sweep_engine.hpp"

namespace ckesim {
namespace {

GpuConfig
testConfig()
{
    GpuConfig cfg = makeSmallConfig(4, 4);
    return cfg;
}

TEST(Integration, IsolatedComputeKernelExecutes)
{
    SweepEngine engine(1);
    const IsolatedResult res =
        *engine.isolated(testConfig(), Cycle{20000}, findProfile("bp"));
    EXPECT_GT(res.ipc, 0.1);
    EXPECT_GT(res.stats.issued_instructions, 1000u);
    EXPECT_GT(res.stats.mem_instructions, 0u);
    EXPECT_GT(res.stats.l1d_accesses, 0u);
}

TEST(Integration, IsolatedMemoryKernelExecutes)
{
    SweepEngine engine(1);
    const IsolatedResult res =
        *engine.isolated(testConfig(), Cycle{20000}, findProfile("sv"));
    EXPECT_GT(res.ipc, 0.01);
    EXPECT_GT(res.stats.l1dMissRate(), 0.3);
}

TEST(Integration, ConcurrentPairUnderWsDmil)
{
    SweepEngine engine(1);
    const Workload wl = makeWorkload({"bp", "sv"});
    const ConcurrentResult res = *engine.concurrent(
        testConfig(), Cycle{20000}, wl, NamedScheme::WS_DMIL);
    ASSERT_EQ(res.norm_ipc.size(), 2u);
    EXPECT_GT(res.weighted_speedup, 0.1);
    EXPECT_LE(res.weighted_speedup, 2.5);
    EXPECT_GT(res.fairness, 0.0);
    EXPECT_LE(res.fairness, 1.0 + 1e-9);
}

} // namespace
} // namespace ckesim

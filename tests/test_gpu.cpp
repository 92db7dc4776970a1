/**
 * @file
 * Unit tests for the top-level Gpu orchestration: partition schemes,
 * dynamic Warped-Slicer profiling, UCP repartitioning, stats
 * aggregation and the poll hook.
 */

#include <gtest/gtest.h>

#include "gpu.hpp"

namespace ckesim {
namespace {

GpuConfig
cfg()
{
    return makeSmallConfig(4, 4);
}

Workload
wl(const char *a, const char *b)
{
    Workload w;
    w.kernels = {&findProfile(a), &findProfile(b)};
    return w;
}

TEST(Gpu, LeftoverQuotasApplied)
{
    Gpu gpu(cfg(), wl("bp", "sv"),
            makeScheme(PartitionScheme::Leftover, BmiMode::None,
                       MilMode::None));
    EXPECT_EQ(gpu.sm(0).tbQuota(KernelId{0}),
              findProfile("bp").maxTbsPerSm(cfg().sm));
    EXPECT_EQ(gpu.sm(0).tbQuota(KernelId{1}), 0);
}

TEST(Gpu, SpatialSplitsSms)
{
    Gpu gpu(cfg(), wl("bp", "sv"),
            makeScheme(PartitionScheme::Spatial, BmiMode::None,
                       MilMode::None));
    EXPECT_GT(gpu.sm(0).tbQuota(KernelId{0}), 0);
    EXPECT_EQ(gpu.sm(0).tbQuota(KernelId{1}), 0);
    EXPECT_EQ(gpu.sm(3).tbQuota(KernelId{0}), 0);
    EXPECT_GT(gpu.sm(3).tbQuota(KernelId{1}), 0);
}

TEST(Gpu, SmkDrfQuotasBroadcast)
{
    Gpu gpu(cfg(), wl("bp", "sv"),
            makeScheme(PartitionScheme::SmkDrf, BmiMode::None,
                       MilMode::None));
    ASSERT_EQ(gpu.chosenPartition().size(), 2u);
    for (int s = 0; s < gpu.numSms(); ++s) {
        EXPECT_EQ(gpu.sm(s).tbQuota(KernelId{0}), gpu.chosenPartition()[0]);
        EXPECT_EQ(gpu.sm(s).tbQuota(KernelId{1}), gpu.chosenPartition()[1]);
    }
}

TEST(Gpu, DynamicWsProfilesThenPartitions)
{
    SchemeSpec spec = makeScheme(PartitionScheme::WarpedSlicer,
                                 BmiMode::None, MilMode::None);
    spec.ws_profile_window = Cycle{3000};
    Gpu gpu(cfg(), wl("bp", "sv"), spec);

    // During profiling each SM runs a single kernel.
    for (int s = 0; s < gpu.numSms(); ++s) {
        const bool single = (gpu.sm(s).tbQuota(KernelId{0}) == 0) !=
                            (gpu.sm(s).tbQuota(KernelId{1}) == 0);
        EXPECT_TRUE(single) << "sm " << s;
    }

    gpu.run(Cycle{8000});

    // After the window: a feasible shared partition on every SM.
    ASSERT_EQ(gpu.chosenPartition().size(), 2u);
    EXPECT_GE(gpu.chosenPartition()[0], 1);
    EXPECT_GE(gpu.chosenPartition()[1], 1);
    EXPECT_TRUE(partitionFits(gpu.chosenPartition(),
                              wl("bp", "sv").kernels, cfg().sm));
    EXPECT_GT(gpu.theoreticalWs(), 0.5);
    // Measurement phase excludes the window.
    EXPECT_EQ(gpu.measuredCycles(), Cycle{8000 - 3000});
}

TEST(Gpu, OracleCurvesSkipProfiling)
{
    SchemeSpec spec = makeScheme(PartitionScheme::WarpedSlicer,
                                 BmiMode::None, MilMode::None);
    ScalabilityCurve linear, sat;
    for (int t = 1; t <= 12; ++t)
        linear.addPoint(t, 1.0 * t);
    for (int t = 1; t <= 16; ++t)
        sat.addPoint(t, std::min(t, 4) * 1.0);
    spec.oracle_curves = {linear, sat};
    Gpu gpu(cfg(), wl("bp", "sv"), spec);
    // Partition decided at construction; both kernels resident.
    EXPECT_GE(gpu.sm(0).tbQuota(KernelId{0}), 1);
    EXPECT_GE(gpu.sm(0).tbQuota(KernelId{1}), 1);
    gpu.run(Cycle{2000});
    EXPECT_EQ(gpu.measuredCycles(), Cycle{2000});
}

TEST(Gpu, IpcAggregatesAcrossSms)
{
    Gpu gpu(cfg(), wl("bp", "sv"),
            makeScheme(PartitionScheme::SmkDrf, BmiMode::None,
                       MilMode::None));
    gpu.run(Cycle{4000});
    std::uint64_t instrs = 0;
    for (int s = 0; s < gpu.numSms(); ++s)
        instrs += gpu.sm(s).kernelStats(KernelId{0}).issued_instructions;
    EXPECT_NEAR(gpu.ipc(KernelId{0}),
                static_cast<double>(instrs) / 4000.0, 1e-9);
    EXPECT_EQ(gpu.kernelStatsTotal(KernelId{0}).issued_instructions, instrs);
}

TEST(Gpu, UcpAppliesWayRestrictions)
{
    SchemeSpec spec = makeScheme(PartitionScheme::SmkDrf,
                                 BmiMode::None, MilMode::None);
    spec.ucp = true;
    spec.ucp_interval = Cycle{2000};
    Gpu gpu(cfg(), wl("bp", "ks"), spec);
    gpu.run(Cycle{6000});
    // After repartitioning, victim choice for the two kernels must be
    // confined to disjoint way ranges; verify via fresh allocations.
    const CacheArray &tags = gpu.sm(0).l1d().tags();
    VictimResult v0 = tags.chooseVictim(LineAddr{0xdead00}, KernelId{0});
    VictimResult v1 = tags.chooseVictim(LineAddr{0xdead00}, KernelId{1});
    ASSERT_TRUE(v0.ok);
    ASSERT_TRUE(v1.ok);
    EXPECT_NE(v0.way, v1.way);
}

TEST(Gpu, SeriesAttachAggregatesAllSms)
{
    Gpu gpu(cfg(), wl("bp", "sv"),
            makeScheme(PartitionScheme::SmkDrf, BmiMode::None,
                       MilMode::None));
    TimeSeries issue(Cycle{1000}), l1d(Cycle{1000});
    gpu.attachSeries(KernelId{0}, &issue, &l1d);
    gpu.run(Cycle{3000});
    std::uint64_t recorded = 0;
    for (std::uint64_t b : issue.bins())
        recorded += b;
    EXPECT_EQ(recorded,
              gpu.kernelStatsTotal(KernelId{0}).issued_instructions);
}

TEST(Gpu, SingleKernelWorkloads)
{
    Workload w;
    w.kernels = {&findProfile("cp")};
    Gpu gpu(cfg(), w,
            makeScheme(PartitionScheme::Leftover, BmiMode::None,
                       MilMode::None));
    gpu.run(Cycle{3000});
    EXPECT_GT(gpu.ipc(KernelId{0}), 0.5);
}

TEST(Gpu, ThreeKernelWorkload)
{
    Workload w;
    w.kernels = {&findProfile("bp"), &findProfile("sv"),
                 &findProfile("pf")};
    SchemeSpec spec = makeScheme(PartitionScheme::WarpedSlicer,
                                 BmiMode::QBMI, MilMode::Dynamic);
    spec.ws_profile_window = Cycle{2000};
    Gpu gpu(cfg(), w, spec);
    gpu.run(Cycle{8000});
    ASSERT_EQ(gpu.chosenPartition().size(), 3u);
    for (int k = 0; k < 3; ++k)
        EXPECT_GT(gpu.ipc(KernelId{k}), 0.0) << k;
}

TEST(Gpu, PollHookRunsAtEveryIntegrityCheckWithoutChangingState)
{
    // Campaign-worker heartbeats ride this hook: one call per
    // integrity check (each cycle t with t % check_interval == 0), no
    // effect on simulated state, and its exception stops run().
    GpuConfig c = cfg();
    c.integrity.check_interval = 100;
    const SchemeSpec spec = makeScheme(PartitionScheme::Spatial,
                                       BmiMode::QBMI, MilMode::Dynamic);
    const Cycle cycles{3000};

    Gpu plain(c, wl("bp", "sv"), spec);
    plain.run(cycles);

    Gpu hooked(c, wl("bp", "sv"), spec);
    int calls = 0;
    hooked.setPollHook([&calls] { ++calls; });
    hooked.run(cycles);
    EXPECT_EQ(hooked.snapshot().fingerprint, plain.snapshot().fingerprint);
    EXPECT_EQ(calls, 30); // t = 0, 100, ..., 2900

    struct Stop
    {
    };
    Gpu stopped(c, wl("bp", "sv"), spec);
    int polls = 0;
    stopped.setPollHook([&polls] {
        if (++polls == 3)
            throw Stop{};
    });
    EXPECT_THROW(stopped.run(cycles), Stop);
    EXPECT_EQ(polls, 3);
    EXPECT_EQ(stopped.snapshot().cycle, Cycle{200});
}

} // namespace
} // namespace ckesim

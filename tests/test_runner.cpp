/**
 * @file
 * Unit tests for running experiments on a serial SweepEngine:
 * isolated baselines, scheme construction and concurrent-run metric
 * consistency.
 */

#include <gtest/gtest.h>

#include "metrics/sweep_engine.hpp"

namespace ckesim {
namespace {

constexpr Cycle kCycles{10000};

GpuConfig
smallCfg()
{
    return makeSmallConfig(4, 4);
}

TEST(SerialEngine, IsolatedResultsAreCached)
{
    SweepEngine e(1);
    const auto a = e.isolated(smallCfg(), kCycles, findProfile("bp"));
    const auto b = e.isolated(smallCfg(), kCycles, findProfile("bp"));
    EXPECT_EQ(a, b); // same cache entry
    EXPECT_GT(a->ipc, 0.0);
    EXPECT_DOUBLE_EQ(a->ipc_per_sm, a->ipc / 4);
}

TEST(SerialEngine, TbLimitReducesParallelism)
{
    SweepEngine e(1);
    const auto full = e.isolated(smallCfg(), kCycles, findProfile("bp"));
    const auto one = e.isolated(smallCfg(), kCycles, findProfile("bp"), 1);
    EXPECT_LT(one->ipc, full->ipc);
    EXPECT_EQ(one->max_tbs, 1);
}

TEST(SerialEngine, ScalabilityCurveCoversAllTbCounts)
{
    SweepEngine e(1);
    const GpuConfig cfg = makeSmallConfig(2, 2);
    const ScalabilityCurve c =
        e.scalability(cfg, Cycle{5000}, findProfile("sv"));
    EXPECT_EQ(c.maxTbs(), findProfile("sv").maxTbsPerSm(cfg.sm));
    EXPECT_GT(c.at(1), 0.0);
    EXPECT_GT(c.at(4), c.at(1)); // more TBs help at first
}

TEST(SerialEngine, SchemeNames)
{
    EXPECT_EQ(schemeName(NamedScheme::WS), "WS");
    EXPECT_EQ(schemeName(NamedScheme::WS_DMIL), "WS-DMIL");
    EXPECT_EQ(schemeName(NamedScheme::SMK_PW), "SMK-(P+W)");
    EXPECT_EQ(schemeName(NamedScheme::WS_QBMI_DMIL), "WS-QBMI+DMIL");
}

TEST(SerialEngine, SchemeSpecsMatchNames)
{
    SweepEngine e(1);
    const Workload w = makeWorkload({"bp", "sv"});
    auto scheme = [&](NamedScheme named) {
        return e.makeNamedScheme(smallCfg(), kCycles, named, w);
    };
    SchemeSpec s = scheme(NamedScheme::WS_QBMI);
    EXPECT_EQ(s.partition, PartitionScheme::WarpedSlicer);
    EXPECT_EQ(s.bmi, BmiMode::QBMI);
    EXPECT_EQ(s.mil, MilMode::None);

    s = scheme(NamedScheme::SMK_P_DMIL);
    EXPECT_EQ(s.partition, PartitionScheme::SmkDrf);
    EXPECT_EQ(s.mil, MilMode::Dynamic);
    EXPECT_FALSE(s.smk_warp_quota);

    s = scheme(NamedScheme::SMK_PW);
    EXPECT_TRUE(s.smk_warp_quota);
    ASSERT_EQ(s.isolated_ipc_per_sm.size(), 2u);
    EXPECT_GT(s.isolated_ipc_per_sm[0], 0.0);

    s = scheme(NamedScheme::WS_UCP);
    EXPECT_TRUE(s.ucp);
}

TEST(SerialEngine, ConcurrentResultInternallyConsistent)
{
    SweepEngine e(1);
    const Workload w = makeWorkload({"bp", "sv"});
    const ConcurrentResult res =
        *e.concurrent(smallCfg(), kCycles, w, NamedScheme::WS_DMIL);
    ASSERT_EQ(res.norm_ipc.size(), 2u);
    double sum = 0.0;
    for (double v : res.norm_ipc) {
        EXPECT_GT(v, 0.0);
        sum += v;
    }
    EXPECT_NEAR(res.weighted_speedup, sum, 1e-12);
    EXPECT_GT(res.antt_value, 0.9);
    EXPECT_GT(res.fairness, 0.0);
    EXPECT_LE(res.fairness, 1.0 + 1e-12);
    EXPECT_EQ(res.workload_name, "bp+sv");
    EXPECT_EQ(res.stats.size(), 2u);
}

TEST(SerialEngine, SpatialBeatsNothingRunning)
{
    SweepEngine e(1);
    const Workload w = makeWorkload({"bp", "sv"});
    const ConcurrentResult res =
        *e.concurrent(smallCfg(), kCycles, w, NamedScheme::Spatial);
    EXPECT_GT(res.weighted_speedup, 0.3);
    EXPECT_LT(res.weighted_speedup, 2.0 + 1e-12);
}

} // namespace
} // namespace ckesim

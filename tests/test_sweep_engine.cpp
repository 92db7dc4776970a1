/**
 * @file
 * Unit tests for the SimJob/SweepEngine layer: content-hash key
 * stability and sensitivity, memo-cache accounting, deterministic
 * submission-order results, serial-vs-parallel bit-identity via stat
 * fingerprints, scalability-curve equivalence with a serial engine,
 * and exception propagation out of sweeps.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "metrics/sweep_engine.hpp"

namespace ckesim {
namespace {

constexpr Cycle kCycles{8000};

GpuConfig
smallCfg()
{
    return makeSmallConfig(4, 4);
}

TEST(SimJob, KeyIsStableAcrossCopies)
{
    const Workload w = makeWorkload({"bp", "sv"});
    const SimJob a =
        SimJob::concurrent(smallCfg(), kCycles, w, NamedScheme::WS);
    const SimJob b = a;
    EXPECT_EQ(a.key(), b.key());

    const SimJob c =
        SimJob::concurrent(smallCfg(), kCycles, w, NamedScheme::WS);
    EXPECT_EQ(a.key(), c.key());
}

TEST(SimJob, KeyIsSensitiveToEveryInput)
{
    const Workload w = makeWorkload({"bp", "sv"});
    const SimJob base =
        SimJob::concurrent(smallCfg(), kCycles, w, NamedScheme::WS);

    SimJob other = base;
    other.cycles += 1;
    EXPECT_NE(base.key(), other.key());

    other = base;
    other.named = NamedScheme::WS_DMIL;
    EXPECT_NE(base.key(), other.key());

    other = base;
    other.cfg.l1d.size_bytes *= 2;
    EXPECT_NE(base.key(), other.key());

    other = base;
    other.workload = makeWorkload({"bp", "ks"});
    EXPECT_NE(base.key(), other.key());

    other = base;
    other.series.issue = true;
    EXPECT_NE(base.key(), other.key());

    // The display label must NOT affect the key.
    other = base;
    other.label = "pretty name";
    EXPECT_EQ(base.key(), other.key());

    // Isolated jobs: the TB cap is result-affecting.
    const SimJob iso =
        SimJob::isolated(smallCfg(), kCycles, findProfile("bp"));
    SimJob iso2 =
        SimJob::isolated(smallCfg(), kCycles, findProfile("bp"), 2);
    EXPECT_NE(iso.key(), iso2.key());
    EXPECT_NE(iso.key(), base.key());
}

TEST(SimJob, ExplicitSpecAndNamedSchemeHashDifferently)
{
    const Workload w = makeWorkload({"bp", "sv"});
    const SimJob named =
        SimJob::concurrent(smallCfg(), kCycles, w, NamedScheme::WS);
    const SchemeSpec spec = makeScheme(PartitionScheme::WarpedSlicer,
                                       BmiMode::None, MilMode::None);
    const SimJob explicit_spec =
        SimJob::concurrent(smallCfg(), kCycles, w, spec);
    EXPECT_NE(named.key(), explicit_spec.key());
}

TEST(SweepEngine, MemoCacheAccounting)
{
    SweepEngine engine(1);
    const GpuConfig cfg = smallCfg();
    const KernelProfile &bp = findProfile("bp");

    const auto a = engine.isolated(cfg, kCycles, bp);
    SweepStats s = engine.stats();
    EXPECT_EQ(s.sims_executed, 1u);
    EXPECT_EQ(s.memo_hits, 0u);
    EXPECT_EQ(s.isolated_runs, 1u);

    const auto b = engine.isolated(cfg, kCycles, bp);
    s = engine.stats();
    EXPECT_EQ(s.sims_executed, 1u); // no second simulation
    EXPECT_EQ(s.memo_hits, 1u);
    EXPECT_EQ(s.isolated_hits, 1u);
    EXPECT_EQ(a.get(), b.get()); // literally the same result object

    engine.clearCache();
    const auto c = engine.isolated(cfg, kCycles, bp);
    s = engine.stats();
    EXPECT_EQ(s.sims_executed, 2u);
    EXPECT_EQ(fingerprint(a->stats), fingerprint(c->stats));
}

TEST(SweepEngine, ConcurrentRunSharesIsolatedBaselines)
{
    SweepEngine engine(1);
    const GpuConfig cfg = smallCfg();
    const Workload w = makeWorkload({"bp", "sv"});

    // One concurrent job triggers both isolated baselines (for
    // norm_ipc); running the isolated jobs afterwards must be free.
    engine.concurrent(cfg, kCycles, w, NamedScheme::WS);
    const SweepStats before = engine.stats();
    engine.isolated(cfg, kCycles, findProfile("bp"));
    engine.isolated(cfg, kCycles, findProfile("sv"));
    const SweepStats after = engine.stats();
    EXPECT_EQ(before.sims_executed, after.sims_executed);
    EXPECT_EQ(after.memo_hits, before.memo_hits + 2);
    EXPECT_GT(after.hitRate(), 0.0);
}

std::vector<SimJob>
mixedJobs(const GpuConfig &cfg)
{
    std::vector<SimJob> jobs;
    for (const char *name : {"bp", "sv", "ks"})
        jobs.push_back(
            SimJob::isolated(cfg, kCycles, findProfile(name)));
    for (NamedScheme s :
         {NamedScheme::WS, NamedScheme::WS_QBMI, NamedScheme::WS_DMIL,
          NamedScheme::Spatial})
        jobs.push_back(SimJob::concurrent(
            cfg, kCycles, makeWorkload({"bp", "sv"}), s));
    jobs.push_back(SimJob::concurrent(
        cfg, kCycles, makeWorkload({"sv", "ks"}), NamedScheme::WS));
    return jobs;
}

TEST(SweepEngine, SerialAndParallelSweepsAreBitIdentical)
{
    const GpuConfig cfg = smallCfg();
    SweepEngine serial(1);
    SweepEngine parallel(4);

    const std::vector<SimResult> a = serial.sweep(mixedJobs(cfg));
    const std::vector<SimResult> b = parallel.sweep(mixedJobs(cfg));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].isolated) {
            ASSERT_TRUE(b[i].isolated);
            EXPECT_EQ(fingerprint(a[i].isolated->stats),
                      fingerprint(b[i].isolated->stats));
            EXPECT_EQ(fingerprint(a[i].isolated->sm_stats),
                      fingerprint(b[i].isolated->sm_stats));
            EXPECT_DOUBLE_EQ(a[i].isolated->ipc, b[i].isolated->ipc);
        } else {
            ASSERT_TRUE(b[i].concurrent);
            const ConcurrentResult &x = *a[i].concurrent;
            const ConcurrentResult &y = *b[i].concurrent;
            ASSERT_EQ(x.stats.size(), y.stats.size());
            for (std::size_t k = 0; k < x.stats.size(); ++k) {
                EXPECT_EQ(fingerprint(x.stats[k]),
                          fingerprint(y.stats[k]));
                EXPECT_DOUBLE_EQ(x.norm_ipc[k], y.norm_ipc[k]);
            }
            EXPECT_EQ(fingerprint(x.sm_stats),
                      fingerprint(y.sm_stats));
            EXPECT_DOUBLE_EQ(x.weighted_speedup, y.weighted_speedup);
            EXPECT_DOUBLE_EQ(x.antt_value, y.antt_value);
            EXPECT_DOUBLE_EQ(x.fairness, y.fairness);
            EXPECT_EQ(x.partition, y.partition);
        }
    }
}

TEST(SweepEngine, ResultsComeBackInSubmissionOrder)
{
    const GpuConfig cfg = smallCfg();
    SweepEngine engine(4);
    std::vector<SimJob> jobs;
    const std::vector<const char *> names = {"bp", "sv", "ks", "pf",
                                             "hs"};
    for (const char *n : names)
        jobs.push_back(
            SimJob::isolated(cfg, kCycles, findProfile(n)));
    const std::vector<SimResult> results = engine.sweep(jobs);
    ASSERT_EQ(results.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        SweepEngine ref(1);
        const auto expect =
            ref.isolated(cfg, kCycles, findProfile(names[i]));
        EXPECT_EQ(fingerprint(results[i].isolated->stats),
                  fingerprint(expect->stats))
            << "slot " << i << " should hold " << names[i];
    }
}

TEST(SweepEngine, ScalabilityMatchesSerialEngine)
{
    const GpuConfig cfg = smallCfg();
    SweepEngine engine(4);
    SweepEngine serial(1);
    const KernelProfile &sv = findProfile("sv");

    const ScalabilityCurve a = engine.scalability(cfg, kCycles, sv);
    const ScalabilityCurve b = serial.scalability(cfg, kCycles, sv);
    ASSERT_EQ(a.maxTbs(), b.maxTbs());
    for (int t = 1; t <= a.maxTbs(); ++t)
        EXPECT_DOUBLE_EQ(a.at(t), b.at(t));
}

TEST(SweepEngine, SweepRethrowsFirstErrorInSubmissionOrder)
{
    const GpuConfig cfg = smallCfg();
    GpuConfig bad = cfg;
    bad.num_sms = -3; // rejected by GpuConfig::validate()

    SweepEngine engine(2);
    std::vector<SimJob> jobs;
    jobs.push_back(
        SimJob::isolated(cfg, kCycles, findProfile("bp")));
    jobs.push_back(
        SimJob::isolated(bad, kCycles, findProfile("sv")));
    EXPECT_THROW(engine.sweep(jobs), std::exception);

    // The engine must stay usable after a failed sweep.
    const auto ok = engine.isolated(cfg, kCycles, findProfile("bp"));
    EXPECT_GT(ok->ipc, 0.0);
}

TEST(SweepEngine, SeriesCaptureIsPartOfTheKey)
{
    const GpuConfig cfg = smallCfg();
    SweepEngine engine(1);

    SimJob plain =
        SimJob::isolated(cfg, kCycles, findProfile("bp"));
    SimJob sampled = plain;
    sampled.series.l1d = true;

    const SimResult a = engine.run(plain);
    const SimResult b = engine.run(sampled);
    EXPECT_EQ(engine.stats().sims_executed, 2u); // no false sharing
    EXPECT_TRUE(a.isolated->l1d_series.empty());
    ASSERT_EQ(b.isolated->l1d_series.size(), 1u);
    std::uint64_t sampled_events = 0;
    for (std::uint64_t c : b.isolated->l1d_series[0].bins())
        sampled_events += c;
    EXPECT_GT(sampled_events, 0u);
    // Sampling must not perturb the simulation itself.
    EXPECT_EQ(fingerprint(a.isolated->stats),
              fingerprint(b.isolated->stats));
}

} // namespace
} // namespace ckesim

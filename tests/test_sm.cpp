/**
 * @file
 * Unit tests for the SM: TB dispatch under static resource limits,
 * per-kernel quotas, warp execution, TB restart semantics, stats, the
 * due-wheel across a checkpoint, and wide machines that
 * GpuConfig::validate() accepts.
 */

#include <gtest/gtest.h>

#include <utility>

#include "gpu.hpp"
#include "kernels/workload.hpp"
#include "mem/memsys.hpp"
#include "sim/snapshot.hpp"
#include "sm/sm.hpp"

namespace ckesim {
namespace {

struct SmFixture
{
    GpuConfig cfg = makeSmallConfig(1, 2);
    MemorySystem mem{cfg};

    std::unique_ptr<Sm>
    makeSm(std::vector<const KernelProfile *> kernels,
           IssuePolicyConfig policy = {})
    {
        return std::make_unique<Sm>(cfg, SmId{0}, mem,
                                    std::move(kernels), policy);
    }

    void
    run(Sm &sm, Cycle cycles, Cycle from = Cycle{})
    {
        for (Cycle t = from; t < from + cycles; ++t) {
            sm.tick(t);
            mem.tick(t);
        }
    }
};

TEST(Sm, DispatchRespectsQuota)
{
    SmFixture f;
    auto sm = f.makeSm({&findProfile("bp")});
    sm->setTbQuota(KernelId{0}, 3);
    f.run(*sm, Cycle{50});
    EXPECT_EQ(sm->residentTbs(KernelId{0}), 3);
}

TEST(Sm, ZeroQuotaMeansIdle)
{
    SmFixture f;
    auto sm = f.makeSm({&findProfile("bp")});
    sm->setTbQuota(KernelId{0}, 0);
    f.run(*sm, Cycle{100});
    EXPECT_EQ(sm->residentTbs(KernelId{0}), 0);
    EXPECT_EQ(sm->kernelStats(KernelId{0}).issued_instructions, 0u);
}

TEST(Sm, DispatchBoundedByStaticResources)
{
    SmFixture f;
    auto sm = f.makeSm({&findProfile("bp")});
    sm->setTbQuota(KernelId{0}, 100); // far beyond feasibility
    f.run(*sm, Cycle{100});
    EXPECT_EQ(sm->residentTbs(KernelId{0}),
              findProfile("bp").maxTbsPerSm(f.cfg.sm));
}

TEST(Sm, TwoKernelsShareTheSm)
{
    SmFixture f;
    auto sm = f.makeSm({&findProfile("bp"), &findProfile("sv")});
    sm->setTbQuota(KernelId{0}, 9);
    sm->setTbQuota(KernelId{1}, 4);
    f.run(*sm, Cycle{2000});
    EXPECT_EQ(sm->residentTbs(KernelId{0}), 9);
    EXPECT_EQ(sm->residentTbs(KernelId{1}), 4);
    EXPECT_GT(sm->kernelStats(KernelId{0}).issued_instructions, 0u);
    EXPECT_GT(sm->kernelStats(KernelId{1}).issued_instructions, 0u);
}

TEST(Sm, TbsRestartIndefinitely)
{
    SmFixture f;
    // Small instruction budget so TBs complete quickly.
    KernelProfile p = findProfile("cp");
    p.instrs_per_warp = 64;
    auto sm = f.makeSm({&p});
    sm->setTbQuota(KernelId{0}, 2);
    f.run(*sm, Cycle{20000});
    EXPECT_GE(sm->kernelStats(KernelId{0}).tbs_completed, 4u);
    // Refilled after completion.
    EXPECT_EQ(sm->residentTbs(KernelId{0}), 2);
}

TEST(Sm, StatsMixMatchesProfile)
{
    SmFixture f;
    auto sm = f.makeSm({&findProfile("bp")});
    sm->setTbQuota(KernelId{0}, 4);
    f.run(*sm, Cycle{8000});
    const KernelStats &s = sm->kernelStats(KernelId{0});
    ASSERT_GT(s.mem_instructions, 50u);
    EXPECT_NEAR(s.cinstPerMinst(),
                findProfile("bp").cinst_per_minst, 1.5);
    EXPECT_NEAR(s.reqPerMinst(),
                findProfile("bp").req_per_minst, 0.5);
    // Accesses resolve to hit or miss exactly once.
    EXPECT_EQ(s.l1d_hits + s.l1d_misses, s.l1d_accesses);
    // rsfail reason counters sum to the total.
    EXPECT_EQ(s.l1d_rsfail_line + s.l1d_rsfail_mshr +
                  s.l1d_rsfail_missq,
              s.l1d_rsfails);
}

TEST(Sm, ResetStatsClearsCountersOnly)
{
    SmFixture f;
    auto sm = f.makeSm({&findProfile("bp")});
    sm->setTbQuota(KernelId{0}, 2);
    f.run(*sm, Cycle{1000});
    ASSERT_GT(sm->kernelStats(KernelId{0}).issued_instructions, 0u);
    const int resident = sm->residentTbs(KernelId{0});
    sm->resetStats();
    EXPECT_EQ(sm->kernelStats(KernelId{0}).issued_instructions, 0u);
    EXPECT_EQ(sm->smStats().cycles, 0u);
    // Warps keep running.
    EXPECT_EQ(sm->residentTbs(KernelId{0}), resident);
    f.run(*sm, Cycle{1000}, Cycle{1000});
    EXPECT_GT(sm->kernelStats(KernelId{0}).issued_instructions, 0u);
}

TEST(Sm, IssueSeriesRecordsActivity)
{
    SmFixture f;
    auto sm = f.makeSm({&findProfile("bp")});
    sm->setTbQuota(KernelId{0}, 4);
    TimeSeries issue(Cycle{100}), l1d(Cycle{100});
    sm->setIssueSeries(KernelId{0}, &issue);
    sm->setL1dSeries(KernelId{0}, &l1d);
    f.run(*sm, Cycle{1000});
    std::uint64_t issued = 0;
    for (std::uint64_t b : issue.bins())
        issued += b;
    EXPECT_EQ(issued,
              sm->kernelStats(KernelId{0}).issued_instructions);
    std::uint64_t accesses = 0;
    for (std::uint64_t b : l1d.bins())
        accesses += b;
    EXPECT_EQ(accesses, sm->kernelStats(KernelId{0}).l1d_accesses);
}

TEST(Sm, MilLimitsInflightInstructions)
{
    SmFixture f;
    IssuePolicyConfig policy;
    policy.mil = MilMode::Static;
    policy.static_limits[0] = 2;
    auto sm = f.makeSm({&findProfile("sv")}, policy);
    sm->setTbQuota(KernelId{0}, 8);
    for (Cycle t{}; t < Cycle{3000}; ++t) {
        sm->tick(t);
        f.mem.tick(t);
        ASSERT_LE(sm->controller().inflight(KernelId{0}), 2);
    }
    EXPECT_GT(sm->kernelStats(KernelId{0}).mem_instructions, 0u);
}

TEST(Sm, AccessObserverSeesEveryServicedAccess)
{
    SmFixture f;
    auto sm = f.makeSm({&findProfile("bp")});
    sm->setTbQuota(KernelId{0}, 2);
    static std::uint64_t observed;
    observed = 0;
    sm->setAccessObserver(
        [](void *, KernelId, LineAddr) { ++observed; }, nullptr);
    f.run(*sm, Cycle{2000});
    EXPECT_EQ(observed, sm->kernelStats(KernelId{0}).l1d_accesses);
}

TEST(Sm, ComputeKernelKeepsPipelineBusy)
{
    SmFixture f;
    auto sm = f.makeSm({&findProfile("cp")});
    sm->setTbQuota(KernelId{0},
                   findProfile("cp").maxTbsPerSm(f.cfg.sm));
    f.run(*sm, Cycle{5000});
    const SmStats &s = sm->smStats();
    const double util =
        static_cast<double>(s.issue_slots_used) /
        (f.cfg.sm.num_schedulers * s.cycles);
    EXPECT_GT(util, 0.2);
    EXPECT_LT(s.lsuStallFraction(), 0.1);
}

/** Pure-ALU work: bursts far longer than the instruction budget. */
KernelProfile
aluOnly(KernelProfile p)
{
    p.cinst_per_minst = 1e6;
    p.sfu_fraction = 0.0;
    p.smem_fraction = 0.0;
    p.instrs_per_warp = 1 << 20;
    return p;
}

TEST(Sm, EveryWarpDueInACycleWakes)
{
    // One TB filling all 96 warp slots with ALU work: each cycle's
    // four issues fall due together in one bucket, over both words of
    // its slot bitset. With the ALU latency equal to a scheduler's 24
    // warps, a scheduler issues every cycle only if every due warp
    // wakes on time.
    SmFixture f;
    f.cfg.sm.alu_latency =
        f.cfg.sm.max_warps / f.cfg.sm.num_schedulers;
    KernelProfile p = aluOnly(findProfile("cp"));
    p.threads_per_tb = f.cfg.sm.max_warps * f.cfg.sm.simd_width;
    p.regs_per_thread = 16;
    p.smem_per_tb = 0;
    auto sm = f.makeSm({&p});
    sm->setTbQuota(KernelId{0}, 1);
    f.run(*sm, Cycle{100});
    ASSERT_EQ(sm->residentTbs(KernelId{0}), 1);
    const std::uint64_t before = sm->smStats().issue_slots_used;
    f.run(*sm, Cycle{1000}, Cycle{100});
    EXPECT_EQ(sm->smStats().issue_slots_used - before,
              static_cast<std::uint64_t>(f.cfg.sm.num_schedulers) * 1000);
}

std::vector<std::uint8_t>
smBytes(const Sm &sm)
{
    SnapshotWriter w;
    Sm::state(w, sm);
    return w.bytes();
}

TEST(Sm, RestoredDueWheelResumesBusyWarps)
{
    // Checkpoint while warps sit Busy under ALU, SFU and shared-memory
    // latencies (several due buckets), restore into a fresh SM: the
    // rebuilt due-wheel must wake them on the same cycles.
    KernelProfile p = findProfile("bp");
    p.sfu_fraction = 0.3;
    p.smem_fraction = 0.3;
    SmFixture a, b;
    auto straight = a.makeSm({&p});
    auto resumed = b.makeSm({&p});
    straight->setTbQuota(KernelId{0}, 4);
    resumed->setTbQuota(KernelId{0}, 4);
    const Cycle at{1237};
    a.run(*straight, at);
    {
        SnapshotWriter w;
        Sm::state(w, std::as_const(*straight));
        MemorySystem::state(w, std::as_const(a.mem));
        SnapshotReader r(w.bytes());
        Sm::state(r, *resumed);
        MemorySystem::state(r, b.mem);
        ASSERT_TRUE(r.atEnd());
    }
    ASSERT_EQ(smBytes(*resumed), smBytes(*straight));
    for (Cycle t = at; t < at + Cycle{2000}; ++t) {
        straight->tick(t);
        a.mem.tick(t);
        resumed->tick(t);
        b.mem.tick(t);
        if (t.get() % 100 == 0) {
            ASSERT_EQ(smBytes(*resumed), smBytes(*straight))
                << "cycle " << t;
        }
    }
    EXPECT_GT(resumed->kernelStats(KernelId{0}).issued_instructions,
              0u);
    EXPECT_EQ(smBytes(*resumed), smBytes(*straight));
}

/** Run @p p alone on a one-SM @p cfg through the audit. */
void
runWideMachine(const GpuConfig &cfg, const KernelProfile &p)
{
    cfg.validate();
    Workload wl;
    wl.kernels = {&p};
    Gpu gpu(cfg, wl,
            makeScheme(PartitionScheme::Spatial, BmiMode::None,
                       MilMode::None));
    gpu.run(Cycle{3000});
    EXPECT_GT(gpu.kernelStatsTotal(KernelId{0}).issued_instructions, 0u);
    gpu.audit();
}

TEST(Sm, TbOfMoreThan64WarpsLaunches)
{
    // simd_width 8: a 1024-thread TB is 128 warps.
    GpuConfig cfg = makeSmallConfig(1, 2);
    cfg.sm.simd_width = 8;
    cfg.sm.max_warps = 256;
    cfg.sm.max_threads = 2048;
    KernelProfile p = findProfile("bp");
    p.threads_per_tb = 1024;
    p.regs_per_thread = 16;
    p.smem_per_tb = 0;
    runWideMachine(cfg, p);
}

TEST(Sm, WarpOfMoreThan32LinesIssues)
{
    // simd_width 64: one memory instruction may touch 40 lines.
    GpuConfig cfg = makeSmallConfig(1, 2);
    cfg.sm.simd_width = 64;
    KernelProfile p = findProfile("ks");
    p.req_per_minst = 40;
    runWideMachine(cfg, p);
}

} // namespace
} // namespace ckesim

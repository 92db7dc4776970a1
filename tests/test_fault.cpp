/**
 * @file
 * Fault-injection proving ground: every injected hard fault in the
 * memory pipeline (dropped L1D fills, a jammed crossbar, frozen DRAM
 * channels) must be detected — by the forward-progress watchdog or by
 * the end-of-run conservation audit — within 10k cycles and reported
 * with machine context. Recoverable faults (delayed fills, transient
 * stalls, forced reservation failures) must degrade, not corrupt.
 */

#include <gtest/gtest.h>

#include <string>

#include "gpu.hpp"
#include "kernels/workload.hpp"
#include "metrics/sweep_engine.hpp"
#include "sim/check.hpp"
#include "sim/fault.hpp"

namespace ckesim {
namespace {

GpuConfig
faultCfg()
{
    GpuConfig cfg = makeSmallConfig(2, 2);
    // Bound the audit drain so leak tests fail fast.
    cfg.integrity.audit_drain_limit = 3000;
    return cfg;
}

/** Memory-heavy pair: deadlocks bite quickly. */
Workload
memWorkload()
{
    return makeWorkload({"sv", "ks"});
}

SchemeSpec
spatialSpec()
{
    return makeScheme(PartitionScheme::Spatial, BmiMode::None,
                      MilMode::None);
}

// ---- FaultInjector unit behaviour --------------------------------------

TEST(FaultInjector, RespectsWindowTargetAndBudget)
{
    FaultInjector inj({{FaultKind::DropFill, Cycle{100}, Cycle{200}, 1, 2, Cycle{}}});
    EXPECT_FALSE(inj.dropFill(SmId{1}, Cycle{99}));   // before window
    EXPECT_FALSE(inj.dropFill(SmId{0}, Cycle{150}));  // wrong SM
    EXPECT_TRUE(inj.dropFill(SmId{1}, Cycle{150}));   // budget 2 -> 1
    EXPECT_TRUE(inj.dropFill(SmId{1}, Cycle{151}));   // budget 1 -> 0
    EXPECT_FALSE(inj.dropFill(SmId{1}, Cycle{152}));  // exhausted
    EXPECT_FALSE(inj.dropFill(SmId{1}, Cycle{200}));  // window end is exclusive
    EXPECT_EQ(inj.firedCount(FaultKind::DropFill), 2u);
    EXPECT_TRUE(inj.anyFired());
}

TEST(FaultInjector, WildcardTargetHitsEveryInstance)
{
    FaultInjector inj(
        {{FaultKind::StallCrossbar, Cycle{0}, kNeverCycle, -1, -1, Cycle{}}});
    EXPECT_TRUE(inj.stallCrossbarPort(0, Cycle{5}));
    EXPECT_TRUE(inj.stallCrossbarPort(3, Cycle{5}));
    EXPECT_FALSE(inj.dramFrozen(0, Cycle{5})); // different kind
}

TEST(FaultInjector, FillDelayReturnsConfiguredDelay)
{
    FaultInjector inj(
        {{FaultKind::DelayFill, Cycle{0}, kNeverCycle, -1, -1, Cycle{75}}});
    EXPECT_EQ(inj.fillDelay(SmId{0}, Cycle{10}), Cycle{75});
    FaultInjector none;
    EXPECT_TRUE(none.empty());
    EXPECT_EQ(none.fillDelay(SmId{0}, Cycle{10}), Cycle{});
    EXPECT_FALSE(none.anyFired());
}

// ---- hard faults: the watchdog must fire with context ------------------

/** Run @p spec expecting a watchdog trip; return the error. */
SimError
expectWatchdog(const SchemeSpec &spec, Cycle run_cycles = Cycle{16000})
{
    Gpu gpu(faultCfg(), memWorkload(), spec);
    try {
        gpu.run(run_cycles);
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), "Watchdog") << e.what();
        return e;
    }
    ADD_FAILURE() << "watchdog never fired";
    return SimError("none", "", SimCtx{}, "");
}

TEST(FaultDetection, DroppedL1FillsTripTheWatchdogWithin10k)
{
    SchemeSpec spec = spatialSpec();
    spec.faults.push_back(
        {FaultKind::DropFill, Cycle{0}, kNeverCycle, -1, -1, Cycle{}});
    const SimError e = expectWatchdog(spec);
    // Detection budget: the fault is active from cycle 0.
    EXPECT_LE(e.ctx().cycle, Cycle{10000});
    // Diagnostics carry per-SM occupancies and the memsys ledger.
    const std::string d = e.detail();
    EXPECT_NE(d.find("sm 0:"), std::string::npos) << d;
    EXPECT_NE(d.find("sm 1:"), std::string::npos) << d;
    EXPECT_NE(d.find("l1_mshr="), std::string::npos) << d;
    EXPECT_NE(d.find("memsys"), std::string::npos) << d;
    EXPECT_NE(d.find("mil="), std::string::npos) << d;
    EXPECT_NE(d.find("quota="), std::string::npos) << d;
}

TEST(FaultDetection, JammedCrossbarTripsTheWatchdogWithin10k)
{
    SchemeSpec spec = spatialSpec();
    spec.faults.push_back(
        {FaultKind::StallCrossbar, Cycle{0}, kNeverCycle, -1, -1, Cycle{}});
    const SimError e = expectWatchdog(spec);
    EXPECT_LE(e.ctx().cycle, Cycle{10000});
    EXPECT_NE(e.detail().find("l1_missq="), std::string::npos)
        << e.detail();
}

TEST(FaultDetection, FrozenDramChannelsTripTheWatchdogWithin10k)
{
    SchemeSpec spec = spatialSpec();
    spec.faults.push_back(
        {FaultKind::FreezeDram, Cycle{0}, kNeverCycle, -1, -1, Cycle{}});
    const SimError e = expectWatchdog(spec);
    EXPECT_LE(e.ctx().cycle, Cycle{10000});
}

// ---- hard faults without deadlock: the audit must report the leak ------

TEST(FaultDetection, PartialFillDropFailsTheConservationAudit)
{
    // Two dropped fills leak two L1 MSHRs but the machine keeps
    // running on other warps — only the audit can prove the loss.
    SchemeSpec spec = spatialSpec();
    spec.faults.push_back({FaultKind::DropFill, Cycle{500}, Cycle{600}, 0, 2, Cycle{}});
    Gpu gpu(faultCfg(), memWorkload(), spec);
    gpu.run(Cycle{4000});
    EXPECT_EQ(gpu.faultInjector().firedCount(FaultKind::DropFill), 2u);
    try {
        gpu.audit();
        FAIL() << "audit passed despite dropped fills";
    } catch (const SimError &e) {
        EXPECT_EQ(e.ctx().sm_id, SmId{0}); // the targeted SM is named
        EXPECT_NE(std::string(e.what()).find("mshr"),
                  std::string::npos)
            << e.what();
    }
}

// ---- recoverable faults: degrade without corruption --------------------

TEST(FaultRecovery, DelayedFillsCompleteAndPassTheAudit)
{
    SchemeSpec spec = spatialSpec();
    spec.faults.push_back(
        {FaultKind::DelayFill, Cycle{0}, kNeverCycle, -1, -1, Cycle{200}});
    Gpu gpu(faultCfg(), memWorkload(), spec);
    EXPECT_NO_THROW(gpu.run(Cycle{8000}));
    EXPECT_GT(gpu.faultInjector().firedCount(FaultKind::DelayFill), 0u);
    EXPECT_NO_THROW(gpu.audit());
}

TEST(FaultRecovery, TransientCrossbarStallRecovers)
{
    SchemeSpec spec = spatialSpec();
    spec.faults.push_back({FaultKind::StallCrossbar, Cycle{1000}, Cycle{1400}, -1, -1, Cycle{}});
    Gpu gpu(faultCfg(), memWorkload(), spec);
    EXPECT_NO_THROW(gpu.run(Cycle{8000}));
    EXPECT_NO_THROW(gpu.audit());
}

TEST(FaultRecovery, ForcedRsFailsStallButRetire)
{
    SchemeSpec spec = spatialSpec();
    spec.faults.push_back(
        {FaultKind::ForceRsFail, Cycle{100}, kNeverCycle, 0, 500, Cycle{}});
    Gpu gpu(faultCfg(), memWorkload(), spec);
    EXPECT_NO_THROW(gpu.run(Cycle{8000}));
    EXPECT_EQ(gpu.faultInjector().firedCount(FaultKind::ForceRsFail),
              500u);
    EXPECT_GT(gpu.smStatsTotal().lsu_stall_cycles, 500u);
    EXPECT_NO_THROW(gpu.audit());
}

// ---- clean runs: the audit must pass ----------------------------------

TEST(Audit, CleanConcurrentRunsDrainCompletely)
{
    // Spans compute-heavy, memory-heavy and mixed pairs; the engine
    // audits every fault-free run after collecting metrics.
    SweepEngine engine(1);
    const Cycle cycles{8000};
    const Workload mixed = makeWorkload({"bp", "sv"});
    EXPECT_NO_THROW(engine.concurrent(faultCfg(), cycles, mixed,
                                      NamedScheme::WS_QBMI_DMIL));
    EXPECT_NO_THROW(engine.concurrent(faultCfg(), cycles, memWorkload(),
                                      NamedScheme::WS));
    EXPECT_NO_THROW(engine.concurrent(faultCfg(), cycles, mixed,
                                      NamedScheme::SMK_PW));
}

TEST(Audit, ExplicitAuditPassesAndPreservesMetrics)
{
    Gpu gpu(faultCfg(), memWorkload(), spatialSpec());
    gpu.run(Cycle{5000});
    const Cycle measured = gpu.measuredCycles();
    const double ipc0 = gpu.ipc(KernelId{0});
    EXPECT_NO_THROW(gpu.audit());
    // Audit drain is bookkeeping, not simulated time.
    EXPECT_EQ(gpu.measuredCycles(), measured);
    EXPECT_DOUBLE_EQ(gpu.ipc(KernelId{0}), ipc0);
    EXPECT_EQ(gpu.memsys().injectedReads(),
              gpu.memsys().deliveredFills());
    EXPECT_EQ(gpu.memsys().inflightReads(), 0u);
}

// ---- watchdog must stay quiet on healthy and idle machines -------------

TEST(Watchdog, DoesNotFireOnHealthyRuns)
{
    Gpu gpu(faultCfg(), memWorkload(), spatialSpec());
    EXPECT_NO_THROW(gpu.run(Cycle{20000}));
}

TEST(Watchdog, DoesNotFireOnAnIdleMachine)
{
    // Zero TB quotas: nothing is resident or in flight, so a silent
    // machine is idle, not hung.
    Gpu gpu(faultCfg(), memWorkload(), spatialSpec());
    for (int s = 0; s < gpu.numSms(); ++s)
        for (int k = 0; k < gpu.numKernels(); ++k)
            gpu.sm(s).setTbQuota(KernelId{k}, 0);
    EXPECT_NO_THROW(gpu.run(Cycle{20000}));
}

TEST(Watchdog, DoesNotFireOnComputeOnlyLatencyStalls)
{
    // Regression: a single warp of pure SFU work with a 2000-cycle
    // dependent-issue latency makes no progress for stretches far
    // beyond the watchdog timeout — with zero memory requests in
    // flight. The watchdog gates on memory occupancy (its only
    // legitimate hang mode is a stuck memory pipeline), so this must
    // be treated as a latency stall, not a hang.
    KernelProfile prof;
    prof.name = "compute_only";
    prof.threads_per_tb = 32; // one warp per TB
    prof.cinst_per_minst = 1e9; // no memory instructions at all
    prof.sfu_fraction = 1.0;
    prof.write_fraction = 0.0;
    prof.instrs_per_warp = 64;
    Workload wl;
    wl.kernels = {&prof};

    GpuConfig cfg = makeSmallConfig(1, 1);
    cfg.sm.sfu_latency = 2000;
    cfg.integrity.check_interval = 64;
    cfg.integrity.watchdog_timeout = 256;
    const SchemeSpec spec = makeScheme(PartitionScheme::Leftover,
                                       BmiMode::None, MilMode::None);
    Gpu gpu(cfg, wl, spec);
    gpu.sm(0).setTbQuota(KernelId{0}, 1);
    EXPECT_NO_THROW(gpu.run(Cycle{30000}));
    EXPECT_FALSE(gpu.memoryInFlight());
    EXPECT_GT(gpu.kernelStatsTotal(KernelId{0}).issued_instructions,
              0u);
}

TEST(Watchdog, StillFiresWhenMemoryIsActuallyStuck)
{
    // The memory-occupancy gate must not swallow real hangs: a
    // dropped fill leaves an L1 MSHR allocated forever, so
    // memoryInFlight() stays true and the watchdog still trips on
    // the same tightened timeouts as the compute-only test above.
    GpuConfig cfg = faultCfg();
    cfg.integrity.check_interval = 64;
    cfg.integrity.watchdog_timeout = 256;
    SchemeSpec spec = spatialSpec();
    spec.faults.push_back(
        {FaultKind::DropFill, Cycle{0}, kNeverCycle, -1, -1, Cycle{}});
    Gpu gpu(cfg, memWorkload(), spec);
    try {
        gpu.run(Cycle{16000});
        FAIL() << "watchdog never fired";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), "Watchdog") << e.what();
        EXPECT_TRUE(gpu.memoryInFlight());
    }
}

} // namespace
} // namespace ckesim

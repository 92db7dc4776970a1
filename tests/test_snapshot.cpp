/**
 * @file
 * Snapshot layer coverage: the typed binary codec (tags, sections,
 * fingerprints, malformed-stream rejection) and the Gpu-level
 * guarantee that restore(snapshot(t)) + run(n) is bit-identical to
 * running straight through t+n, including scheme state, RNG streams
 * and the fault injector.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "gpu.hpp"
#include "kernels/workload.hpp"
#include "sim/check.hpp"
#include "sim/config.hpp"
#include "sim/snapshot.hpp"

namespace ckesim {
namespace {

// ---- codec round-trips -------------------------------------------------

TEST(SnapshotCodec, RoundTripsEveryScalarType)
{
    SnapshotWriter w;
    w.section("test");
    w.u8(0xab);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefULL);
    w.i64(-42);
    w.boolean(true);
    w.boolean(false);
    w.f64(3.141592653589793);
    w.str("hello");
    w.id(KernelId{2});
    w.id(kInvalidKernel);
    w.unit(Cycle{12345});
    FieldWriter(w).put(std::vector<std::uint64_t>{1, 2, 3});
    w.vecBool({true, false, true});

    SnapshotReader r(w.bytes());
    r.section("test");
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_TRUE(r.boolean());
    EXPECT_FALSE(r.boolean());
    EXPECT_EQ(r.f64(), 3.141592653589793);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_EQ(r.id<KernelId>(), KernelId{2});
    EXPECT_EQ(r.id<KernelId>(), kInvalidKernel);
    EXPECT_EQ(r.unit<Cycle>(), Cycle{12345});
    std::vector<std::uint64_t> u64s;
    FieldReader(r).get(u64s);
    EXPECT_EQ(u64s, (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(r.vecBool(), (std::vector<bool>{true, false, true}));
    EXPECT_TRUE(r.atEnd());
}

TEST(SnapshotCodec, DoublesRoundTripByBitPattern)
{
    // -0.0 and NaN payloads must survive exactly; equality compares
    // bits, not values.
    const double neg_zero = -0.0;
    SnapshotWriter w;
    w.f64(neg_zero);
    SnapshotReader r(w.bytes());
    const double back = r.f64();
    EXPECT_EQ(std::memcmp(&neg_zero, &back, sizeof back), 0);
}

TEST(SnapshotCodec, TagMismatchThrows)
{
    SnapshotWriter w;
    w.u64(7);
    SnapshotReader r(w.bytes());
    EXPECT_THROW(r.i64(), SimError); // wrong tag
}

TEST(SnapshotCodec, SectionNameMismatchThrows)
{
    SnapshotWriter w;
    w.section("gpu");
    SnapshotReader r(w.bytes());
    EXPECT_THROW(r.section("sm"), SimError);
}

TEST(SnapshotCodec, TruncatedStreamThrows)
{
    SnapshotWriter w;
    w.u64(1);
    std::vector<std::uint8_t> bytes = w.bytes();
    bytes.resize(bytes.size() - 3);
    SnapshotReader r(bytes);
    EXPECT_THROW(r.u64(), SimError);
}

TEST(SnapshotCodec, FingerprintTracksContent)
{
    SnapshotWriter a;
    a.u64(1);
    SnapshotWriter b;
    b.u64(1);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    SnapshotWriter c;
    c.u64(2);
    EXPECT_NE(a.fingerprint(), c.fingerprint());
}

// ---- Gpu snapshot/restore ----------------------------------------------

GpuConfig
snapCfg()
{
    return makeSmallConfig(2, 2);
}

Workload
mixedPair()
{
    return makeWorkload({"bp", "sv"});
}

/** Bitwise-equal final state + metrics of two machines. */
void
expectIdentical(const Gpu &a, const Gpu &b)
{
    const GpuSnapshot sa = a.snapshot();
    const GpuSnapshot sb = b.snapshot();
    EXPECT_EQ(sa.fingerprint, sb.fingerprint);
    EXPECT_EQ(sa.cycle, sb.cycle);
    EXPECT_EQ(sa.bytes, sb.bytes);
    for (int k = 0; k < a.numKernels(); ++k) {
        const double ia = a.ipc(KernelId{k});
        const double ib = b.ipc(KernelId{k});
        EXPECT_EQ(std::memcmp(&ia, &ib, sizeof ia), 0)
            << "ipc of kernel " << k << " diverged";
    }
}

TEST(GpuSnapshot, RestoreThenRunMatchesStraightRun)
{
    const SchemeSpec spec = makeScheme(PartitionScheme::Spatial,
                                       BmiMode::QBMI,
                                       MilMode::Dynamic);
    Gpu straight(snapCfg(), mixedPair(), spec);
    straight.run(Cycle{3000});
    const GpuSnapshot ckpt = straight.snapshot();
    straight.run(Cycle{3000});

    Gpu resumed(snapCfg(), mixedPair(), spec);
    resumed.restore(ckpt);
    resumed.run(Cycle{3000});
    expectIdentical(straight, resumed);
}

TEST(GpuSnapshot, SnapshotIsSideEffectFree)
{
    const SchemeSpec spec = makeScheme(PartitionScheme::Spatial,
                                       BmiMode::None, MilMode::None);
    Gpu observed(snapCfg(), mixedPair(), spec);
    Gpu plain(snapCfg(), mixedPair(), spec);
    for (int i = 0; i < 4; ++i) {
        observed.run(Cycle{700});
        (void)observed.snapshot(); // must not perturb anything
        plain.run(Cycle{700});
    }
    expectIdentical(observed, plain);
}

TEST(GpuSnapshot, AutoCheckpointFollowsTheConfiguredCadence)
{
    GpuConfig cfg = snapCfg();
    cfg.integrity.checkpoint_interval = 1000;
    const SchemeSpec spec = makeScheme(PartitionScheme::Spatial,
                                       BmiMode::None, MilMode::None);
    Gpu gpu(cfg, mixedPair(), spec);
    EXPECT_EQ(gpu.lastCheckpoint(), nullptr);
    gpu.run(Cycle{2500});
    ASSERT_NE(gpu.lastCheckpoint(), nullptr);
    // Checkpoint is taken before the cycle executes: the newest one
    // covers cycles [0, 2000).
    EXPECT_EQ(gpu.lastCheckpoint()->cycle, Cycle{2000});
    EXPECT_EQ(gpu.lastCheckpoint()->version, kSnapshotFormatVersion);
}

TEST(GpuSnapshot, SplitRunsAndCheckpointing)
{
    // run(4000); run(6000) must land exactly where one run(10000)
    // does, and the auto-checkpoint cadence must not notice the split.
    GpuConfig cfg = makeSmallConfig(4, 4);
    cfg.integrity.checkpoint_interval = 3000;
    const Workload wl = makeWorkload({"sv", "ks"});
    const SchemeSpec spec = makeScheme(PartitionScheme::SmkDrf,
                                       BmiMode::None, MilMode::None);

    Gpu straight(cfg, wl, spec);
    straight.run(Cycle{10000});
    ASSERT_NE(straight.lastCheckpoint(), nullptr);

    Gpu split(cfg, wl, spec);
    split.run(Cycle{4000});
    split.run(Cycle{6000});
    ASSERT_NE(split.lastCheckpoint(), nullptr);

    EXPECT_EQ(straight.snapshot().fingerprint,
              split.snapshot().fingerprint);
    EXPECT_EQ(straight.lastCheckpoint()->cycle,
              split.lastCheckpoint()->cycle);
    EXPECT_EQ(straight.lastCheckpoint()->fingerprint,
              split.lastCheckpoint()->fingerprint);
}

TEST(GpuSnapshot, RestoreRejectsWrongVersion)
{
    const SchemeSpec spec = makeScheme(PartitionScheme::Spatial,
                                       BmiMode::None, MilMode::None);
    Gpu gpu(snapCfg(), mixedPair(), spec);
    gpu.run(Cycle{500});
    GpuSnapshot snap = gpu.snapshot();
    snap.version += 1;
    try {
        gpu.restore(snap);
        FAIL() << "restore accepted a future format version";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), "Snapshot") << e.what();
    }
}

TEST(GpuSnapshot, RestoreRejectsForeignConfig)
{
    const SchemeSpec spec = makeScheme(PartitionScheme::Spatial,
                                       BmiMode::None, MilMode::None);
    Gpu gpu(snapCfg(), mixedPair(), spec);
    gpu.run(Cycle{500});
    const GpuSnapshot snap = gpu.snapshot();

    // The pin covers every keyed field: the old string digest missed
    // the last three, so those restores used to be accepted.
    const std::pair<const char *, void (*)(GpuConfig &)> foreign[] = {
        {"seed", [](GpuConfig &c) { c.seed += 1; }},
        {"sm.alu_latency", [](GpuConfig &c) { c.sm.alu_latency += 1; }},
        {"dram.access_latency",
         [](GpuConfig &c) { c.dram.access_latency += 1; }},
        {"l1d.hit_latency", [](GpuConfig &c) { c.l1d.hit_latency += 1; }},
    };
    for (const auto &[name, change] : foreign) {
        GpuConfig other = snapCfg();
        change(other);
        Gpu target(other, mixedPair(), spec);
        try {
            target.restore(snap);
            ADD_FAILURE() << "restore accepted a foreign " << name;
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), "Snapshot") << name;
        }
    }
}

TEST(GpuSnapshot, RestoreAcceptsOtherCheckpointInterval)
{
    // checkpoint_interval is the one unkeyed config field: a snapshot
    // moves between cadences and the run continues bit-identically.
    const SchemeSpec spec = makeScheme(PartitionScheme::Spatial,
                                       BmiMode::QBMI, MilMode::Dynamic);
    Gpu straight(snapCfg(), mixedPair(), spec);
    straight.run(Cycle{2000});
    const GpuSnapshot ckpt = straight.snapshot();
    straight.run(Cycle{2000});

    GpuConfig cadenced = snapCfg();
    cadenced.integrity.checkpoint_interval = 700;
    Gpu resumed(cadenced, mixedPair(), spec);
    ASSERT_NO_THROW(resumed.restore(ckpt));
    resumed.run(Cycle{2000});
    ASSERT_NE(resumed.lastCheckpoint(), nullptr);
    expectIdentical(straight, resumed);
}

TEST(GpuSnapshot, RestoreRejectsCorruptedPayload)
{
    const SchemeSpec spec = makeScheme(PartitionScheme::Spatial,
                                       BmiMode::None, MilMode::None);
    Gpu gpu(snapCfg(), mixedPair(), spec);
    gpu.run(Cycle{500});
    GpuSnapshot snap = gpu.snapshot();
    snap.bytes[snap.bytes.size() / 2] ^= 0x01; // single bit flip
    EXPECT_THROW(gpu.restore(snap), SimError);
}

TEST(GpuSnapshot, FaultInjectorBudgetsSurviveRestore)
{
    // A budgeted fault that fired before the checkpoint must not fire
    // again after restore: the consumed budget is part of the state.
    SchemeSpec spec = makeScheme(PartitionScheme::Spatial,
                                 BmiMode::None, MilMode::None);
    spec.faults.push_back({FaultKind::DelayFill, Cycle{100},
                           Cycle{4000}, -1, 32, Cycle{150}});
    Gpu straight(snapCfg(), mixedPair(), spec);
    straight.run(Cycle{2000});
    const GpuSnapshot ckpt = straight.snapshot();
    straight.run(Cycle{2000});

    Gpu resumed(snapCfg(), mixedPair(), spec);
    resumed.restore(ckpt);
    resumed.run(Cycle{2000});
    expectIdentical(straight, resumed);
    EXPECT_EQ(
        straight.faultInjector().firedCount(FaultKind::DelayFill),
        resumed.faultInjector().firedCount(FaultKind::DelayFill));
}

} // namespace
} // namespace ckesim

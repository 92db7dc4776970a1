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
#include <string>
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

TEST(GpuSnapshot, SplitRunsAndCheckpointing)
{
    // run(4000); run(6000) must land exactly where one run(10000) does.
    const GpuConfig cfg = makeSmallConfig(4, 4);
    const Workload wl = makeWorkload({"sv", "ks"});
    const SchemeSpec spec = makeScheme(PartitionScheme::SmkDrf,
                                       BmiMode::None, MilMode::None);

    Gpu straight(cfg, wl, spec);
    straight.run(Cycle{10000});

    Gpu split(cfg, wl, spec);
    split.run(Cycle{4000});
    split.run(Cycle{6000});

    EXPECT_EQ(straight.snapshot().fingerprint,
              split.snapshot().fingerprint);
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

TEST(GpuSnapshot, RestoreRejectsForeignSetup)
{
    // The setup pin covers the kernels, their order and the scheme;
    // before it, all but the last of these restores were accepted and
    // kept simulating, and the last failed as SIM_CHECK.
    const SchemeSpec spatial = makeScheme(PartitionScheme::Spatial,
                                          BmiMode::None, MilMode::None);
    const SchemeSpec ws = makeScheme(PartitionScheme::WarpedSlicer,
                                     BmiMode::None, MilMode::None);
    const SchemeSpec smk = makeScheme(PartitionScheme::SmkDrf,
                                      BmiMode::None, MilMode::None);
    const SchemeSpec ws_qbmi_dmil =
        makeScheme(PartitionScheme::WarpedSlicer, BmiMode::QBMI,
                   MilMode::Dynamic);
    struct Case
    {
        const char *name;
        std::vector<std::string> from_kernels;
        SchemeSpec from;
        std::vector<std::string> into_kernels;
        SchemeSpec into;
    };
    const Case cases[] = {
        {"pf+bp into sv+ks", {"pf", "bp"}, spatial, {"sv", "ks"}, spatial},
        {"pf+bp into bp+pf", {"pf", "bp"}, spatial, {"bp", "pf"}, spatial},
        {"Spatial into WS", {"bp", "sv"}, spatial, {"bp", "sv"}, ws},
        {"WS into SMK", {"bp", "sv"}, ws, {"bp", "sv"}, smk},
        {"WS-QBMI+DMIL into Spatial", {"bp", "sv"}, ws_qbmi_dmil,
         {"bp", "sv"}, spatial},
        {"pair into triple", {"bp", "sv"}, spatial, {"bp", "sv", "ks"},
         spatial},
    };
    const GpuConfig cfg = makeSmallConfig(3, 2);
    for (const Case &c : cases) {
        Gpu source(cfg, makeWorkload(c.from_kernels), c.from);
        source.run(Cycle{500});
        const GpuSnapshot snap = source.snapshot();
        Gpu target(cfg, makeWorkload(c.into_kernels), c.into);
        try {
            target.restore(snap);
            ADD_FAILURE() << "restore accepted " << c.name;
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), "Snapshot") << c.name << ": " << e.what();
        }
    }
}

TEST(GpuSnapshot, SnapshotIsDeflatedAndFingerprintsThePlainStream)
{
    const SchemeSpec spec = makeScheme(PartitionScheme::Spatial,
                                       BmiMode::None, MilMode::None);
    Gpu gpu(snapCfg(), mixedPair(), spec);
    gpu.run(Cycle{500});
    const GpuSnapshot snap = gpu.snapshot();
    EXPECT_LT(snap.bytes.size(), snap.plain_size / 2);
    SnapshotReader r(snap); // inflates and verifies
    EXPECT_EQ(r.offset(), 0u);
    EXPECT_FALSE(r.atEnd());
    r.section("gpu");
}

TEST(GpuSnapshot, RestoreRejectsCorruptedPayload)
{
    // Bit flips anywhere in the deflated stream (zlib header, data,
    // the trailing check), truncation, trailing garbage and wrong
    // metadata must all raise kind Snapshot: never bad_alloc, an
    // abort, or a run that silently continues.
    const SchemeSpec spec = makeScheme(PartitionScheme::Spatial,
                                       BmiMode::None, MilMode::None);
    Gpu gpu(snapCfg(), mixedPair(), spec);
    gpu.run(Cycle{500});
    const GpuSnapshot good = gpu.snapshot();
    const std::size_t n = good.bytes.size();
    ASSERT_GT(n, 16u);

    std::vector<std::pair<std::string, GpuSnapshot>> bad;
    for (std::size_t at : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                           n / 7, n / 3, n / 2, 2 * n / 3, n - 5,
                           n - 1}) {
        for (std::uint8_t bit : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
            GpuSnapshot s = good;
            s.bytes[at] ^= bit;
            bad.emplace_back("flip at " + std::to_string(at), s);
        }
    }
    for (std::size_t keep : {std::size_t{0}, std::size_t{2}, n / 2,
                             n - 4, n - 1}) {
        GpuSnapshot s = good;
        s.bytes.resize(keep);
        bad.emplace_back("truncated to " + std::to_string(keep), s);
    }
    {
        GpuSnapshot s = good;
        s.bytes.push_back(0);
        bad.emplace_back("trailing byte", s);
    }
    {
        GpuSnapshot s = good;
        s.plain_size -= 1;
        bad.emplace_back("plain size short", s);
        s.plain_size += 2;
        bad.emplace_back("plain size long", s);
        s.plain_size = ~std::uint64_t{0};
        bad.emplace_back("plain size huge", s);
    }
    {
        GpuSnapshot s = good;
        s.fingerprint ^= 1;
        bad.emplace_back("fingerprint", s);
    }

    for (const auto &[name, snap] : bad) {
        Gpu target(snapCfg(), mixedPair(), spec);
        try {
            target.restore(snap);
            ADD_FAILURE() << "restore accepted " << name;
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), "Snapshot") << name << ": " << e.what();
        }
    }
    // The original still restores.
    Gpu target(snapCfg(), mixedPair(), spec);
    target.restore(good);
    EXPECT_EQ(target.snapshot().fingerprint, good.fingerprint);
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

/**
 * @file
 * Pinned cross-build bytes, recorded from a reference build:
 *  - end-of-run GpuSnapshot fingerprints of short makeSmallConfig()
 *    runs over both warp-scheduler policies, the scheme families that
 *    gate issue or the L1D differently, and one M+M and one C+M pair,
 *    plus one M+M run under four overlapping injected faults;
 *  - SimJob::key() for jobs that between them set every keyed field
 *    to a non-default value (a journal stays valid across builds only
 *    while these hold);
 *  - an FNV-1a hash of the journal's encodeSimResult bytes for one
 *    isolated and one concurrent result with series capture on.
 *
 * Any change to simulated behaviour moves a fingerprint. A change
 * meant to be behaviour-preserving (a hot-path rewrite, a refactor of
 * the hashing or codec) must leave all of them alone; a change meant
 * to alter results or formats re-records them and says why.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "gpu.hpp"
#include "metrics/journal.hpp"
#include "metrics/sim_job.hpp"
#include "metrics/sweep_engine.hpp"

namespace ckesim {
namespace {

struct GoldenCase
{
    const char *pair;   ///< "a+b" kernel short names
    const char *scheme; ///< key into makeGoldenScheme()
    SchedPolicy policy;
    std::uint64_t fingerprint;
};

SchemeSpec
makeGoldenScheme(const std::string &name)
{
    if (name == "ws" || name == "ucp") {
        SchemeSpec spec = makeScheme(PartitionScheme::WarpedSlicer,
                                     BmiMode::None, MilMode::None);
        spec.ws_profile_window = Cycle{2000};
        spec.ucp = name == "ucp";
        spec.ucp_interval = Cycle{1500};
        return spec;
    }
    if (name == "ws-qbmi-dmil") {
        SchemeSpec spec = makeScheme(PartitionScheme::WarpedSlicer,
                                     BmiMode::QBMI, MilMode::Dynamic);
        spec.ws_profile_window = Cycle{2000};
        return spec;
    }
    if (name == "smk-w") {
        SchemeSpec spec = makeScheme(PartitionScheme::SmkDrf,
                                     BmiMode::None, MilMode::None);
        spec.smk_warp_quota = true;
        spec.isolated_ipc_per_sm = {1.5, 0.4};
        spec.smk_epoch_cycles = Cycle{512};
        return spec;
    }
    // "mshr-bypass": Section 4.5 ablations together.
    SchemeSpec spec = makeScheme(PartitionScheme::SmkDrf, BmiMode::None,
                                 MilMode::None);
    spec.mshr_partition = true;
    spec.bypass_l1d[1] = true;
    return spec;
}

std::uint64_t
runFingerprint(const GoldenCase &c)
{
    GpuConfig cfg = makeSmallConfig(4, 4);
    cfg.sm.sched_policy = c.policy;
    const std::string pair = c.pair;
    const std::size_t plus = pair.find('+');
    const Workload wl =
        makeWorkload({pair.substr(0, plus), pair.substr(plus + 1)});
    Gpu gpu(cfg, wl, makeGoldenScheme(c.scheme));
    gpu.run(Cycle{10000});
    return gpu.snapshot().fingerprint;
}

constexpr SchedPolicy GTO = SchedPolicy::GTO;
constexpr SchedPolicy LRR = SchedPolicy::LRR;

const GoldenCase kGolden[] = {
    {"sv+ks", "ws", GTO, 0xccb1e9b33d132b32},
    {"sv+ks", "ws", LRR, 0xf9f8162577df3dd0},
    {"sv+ks", "ws-qbmi-dmil", GTO, 0x8d8d00f20a76d0a8},
    {"sv+ks", "ws-qbmi-dmil", LRR, 0x7e23fa998b6accd1},
    {"sv+ks", "smk-w", GTO, 0xf5257e7260abb54c},
    {"sv+ks", "smk-w", LRR, 0xea198b0e28453c8d},
    {"sv+ks", "ucp", GTO, 0xed7dc0a263118a88},
    {"sv+ks", "ucp", LRR, 0x484eceed0ad3518d},
    {"sv+ks", "mshr-bypass", GTO, 0x17443774438fb6dd},
    {"sv+ks", "mshr-bypass", LRR, 0xc5823ae4782497c6},
    {"bp+ks", "ws", GTO, 0x72622e437a083d7a},
    {"bp+ks", "ws", LRR, 0xa4984c65c3c0b907},
    {"bp+ks", "ws-qbmi-dmil", GTO, 0x715910cf4f97df71},
    {"bp+ks", "ws-qbmi-dmil", LRR, 0x1a09307dec4e738b},
    {"bp+ks", "smk-w", GTO, 0xff4a33460a786027},
    {"bp+ks", "smk-w", LRR, 0xba1feb4ce2cc5645},
    {"bp+ks", "ucp", GTO, 0xf7fe7e8efbb7337f},
    {"bp+ks", "ucp", LRR, 0x7763ba063537c8f3},
    {"bp+ks", "mshr-bypass", GTO, 0xb21f926104ce3815},
    {"bp+ks", "mshr-bypass", LRR, 0xf2dc089a79c4ddd1},
};

TEST(GoldenFingerprints, MatchRecordedValues)
{
    for (const GoldenCase &c : kGolden) {
        const std::uint64_t got = runFingerprint(c);
        char hex[32];
        std::snprintf(hex, sizeof hex, "0x%016llx",
                      static_cast<unsigned long long>(got));
        EXPECT_EQ(got, c.fingerprint)
            << c.pair << " " << c.scheme << " "
            << (c.policy == GTO ? "GTO" : "LRR") << ": got " << hex;
    }
}

TEST(GoldenFingerprints, FaultedRunMatchesRecordedValue)
{
    // The cases above are fault-free. This one overlaps four faults:
    // fills held back on every SM, a few dropped on SM 1 (consulted
    // before the delay), a jammed forward port and forced reservation
    // failures on SM 0. Its bytes pin the order of the injector calls
    // and the service of held fills; the DelayFill window runs to the
    // end, so held fills are in the snapshot.
    SchemeSpec spec = makeGoldenScheme("ws");
    spec.faults = {
        {FaultKind::DelayFill, Cycle{500}, kNeverCycle, -1, -1,
         Cycle{150}},
        {FaultKind::DropFill, Cycle{2000}, Cycle{8000}, 1, 3, Cycle{}},
        {FaultKind::StallCrossbar, Cycle{3000}, Cycle{3600}, 2, -1,
         Cycle{}},
        {FaultKind::ForceRsFail, Cycle{4000}, Cycle{7000}, 0, 400,
         Cycle{}},
    };
    Gpu gpu(makeSmallConfig(4, 4), makeWorkload({"sv", "ks"}), spec);
    gpu.run(Cycle{10000});
    const FaultInjector &faults = gpu.faultInjector();
    EXPECT_GT(faults.firedCount(FaultKind::DelayFill), 0u);
    EXPECT_EQ(faults.firedCount(FaultKind::DropFill), 3u);
    EXPECT_GT(faults.firedCount(FaultKind::StallCrossbar), 0u);
    EXPECT_EQ(faults.firedCount(FaultKind::ForceRsFail), 400u);
    const std::uint64_t got = gpu.snapshot().fingerprint;
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, 0xb59672be5ac1db94ULL) << "got " << hex;
}

// ---- SimJob::key() -------------------------------------------------------

/** Every keyed GpuConfig field moved off its default. */
GpuConfig
everyFieldConfig()
{
    GpuConfig cfg;
    cfg.num_sms = 3;
    cfg.seed = 0x5eed;
    cfg.sm.simd_width = 16;
    cfg.sm.num_schedulers = 2;
    cfg.sm.max_threads = 2048;
    cfg.sm.max_warps = 64;
    cfg.sm.max_tbs = 8;
    cfg.sm.register_file = 32768;
    cfg.sm.smem_bytes = 48 * 1024;
    cfg.sm.sched_policy = SchedPolicy::LRR;
    cfg.sm.alu_latency = 5;
    cfg.sm.sfu_latency = 17;
    cfg.sm.smem_latency = 25;
    cfg.sm.lsu_queue_depth = 9;
    cfg.l1d.size_bytes = 48 * 1024;
    cfg.l1d.line_bytes = 128;
    cfg.l1d.assoc = 3;
    cfg.l1d.num_mshrs = 64;
    cfg.l1d.mshr_merge = 4;
    cfg.l1d.miss_queue_depth = 12;
    cfg.l1d.hit_latency = 29;
    cfg.l2.partition_bytes = 256 * 1024;
    cfg.l2.line_bytes = 128;
    cfg.l2.assoc = 8;
    cfg.l2.num_mshrs = 96;
    cfg.l2.miss_queue_depth = 24;
    cfg.l2.latency = 31;
    cfg.icnt.flit_bytes = 16;
    cfg.icnt.latency = 5;
    cfg.icnt.input_queue_depth = 33;
    cfg.dram.num_channels = 6;
    cfg.dram.banks_per_channel = 8;
    cfg.dram.row_bytes = 4096;
    cfg.dram.access_latency = 121;
    cfg.dram.row_hit_service = 2;
    cfg.dram.row_miss_penalty = 7;
    cfg.dram.frfcfs_window = 16;
    cfg.dram.queue_depth = 64;
    cfg.integrity.periodic_checks = false;
    cfg.integrity.check_interval = 128;
    cfg.integrity.watchdog_timeout = 2048;
    cfg.integrity.audit_drain_limit = 5000;
    return cfg;
}

/** Every SchemeSpec field, including one FaultSpec, off its default. */
SchemeSpec
everyFieldScheme()
{
    SchemeSpec spec = makeScheme(PartitionScheme::SmkDrf, BmiMode::QBMI,
                                 MilMode::Static);
    spec.smil_limits = {3, 5, 0, 2};
    spec.smk_warp_quota = true;
    spec.isolated_ipc_per_sm = {1.25, 0.5};
    spec.smk_epoch_cycles = Cycle{1024};
    spec.ucp = true;
    spec.ucp_interval = Cycle{3000};
    spec.ws_profile_window = Cycle{7000};
    ScalabilityCurve a;
    a.addPoint(1, 0.5);
    a.addPoint(4, 1.75);
    ScalabilityCurve b;
    b.addPoint(2, 0.25);
    spec.oracle_curves = {a, b};
    spec.mshr_partition = true;
    spec.bypass_l1d = {false, true, false, true};
    spec.global_dmil = true;
    spec.global_dmil_interval = Cycle{512};
    spec.faults.push_back({FaultKind::DelayFill, Cycle{100}, Cycle{900},
                           1, 7, Cycle{40}});
    return spec;
}

/** A copy of "sv" with every KernelProfile field changed. */
KernelProfile
everyFieldProfile()
{
    KernelProfile p = findProfile("sv");
    p.name = "sv-mod";
    p.expected_class = KernelClass::Compute;
    p.threads_per_tb = 192;
    p.regs_per_thread = 24;
    p.smem_per_tb = 1024;
    p.cinst_per_minst = 3.5;
    p.req_per_minst = 3;
    p.sfu_fraction = 0.125;
    p.smem_fraction = 0.0625;
    p.write_fraction = 0.2;
    p.pattern = AccessPattern::TiledReuse;
    p.reuse_prob = 0.3;
    p.footprint_bytes = 1ULL << 18;
    p.footprint_regions = 12;
    p.stream_regions = 100;
    p.mlp = 3;
    p.instrs_per_warp = 1000;
    return p;
}

struct KeyCase
{
    const char *name;
    SimJob job;
    std::uint64_t key;
};

TEST(GoldenKeys, MatchRecordedValues)
{
    static const KernelProfile mod = everyFieldProfile();
    const GpuConfig small = makeSmallConfig(2, 2);
    const Workload pair = makeWorkload({"sv", "ks"});

    SimJob series = SimJob::concurrent(small, Cycle{3000}, pair,
                                       NamedScheme::WS_QBMI_DMIL);
    series.series.issue = true;
    series.series.l1d = true;
    series.series.interval = Cycle{250};
    series.label = "labels are never hashed";

    Workload mixed;
    mixed.kernels = {&mod, &findProfile("bp")};

    const KeyCase cases[] = {
        {"config", SimJob::concurrent(everyFieldConfig(), Cycle{5000},
                                      pair, NamedScheme::WS),
         0xa404375378c14e0f},
        {"scheme", SimJob::concurrent(small, Cycle{5000}, pair,
                                      everyFieldScheme()),
         0x614f4271c2be1e05},
        {"profile", SimJob::concurrent(small, Cycle{5000}, mixed,
                                       NamedScheme::SMK_P_DMIL),
         0x1fa5e5c21601f8c7},
        {"series", series, 0xabc5a84be21122a2},
        {"isolated", SimJob::isolated(small, Cycle{4000}, mod, 3),
         0xd1411172808da42a},
    };
    for (const KeyCase &c : cases) {
        const std::uint64_t got = c.job.key();
        char hex[32];
        std::snprintf(hex, sizeof hex, "0x%016llx",
                      static_cast<unsigned long long>(got));
        EXPECT_EQ(got, c.key) << c.name << ": got " << hex;
        // The Dispatch codec walks the key's members, so a job keeps
        // its key across the wire.
        std::vector<KernelProfile> profiles;
        EXPECT_EQ(decodeSimJob(encodeSimJob(c.job), profiles).key(),
                  c.job.key())
            << c.name;
    }
}

// ---- journal codec bytes ---------------------------------------------------

std::uint64_t
fnvOf(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint8_t b : bytes)
        h = (h ^ b) * 0x100000001b3ULL;
    return h;
}

TEST(GoldenCodec, EncodedResultsMatchRecordedValues)
{
    const GpuConfig cfg = makeSmallConfig(2, 2);
    SimJob iso = SimJob::isolated(cfg, Cycle{2000}, findProfile("sv"));
    SchemeSpec spec = makeScheme(PartitionScheme::WarpedSlicer,
                                 BmiMode::QBMI, MilMode::Dynamic);
    spec.ws_profile_window = Cycle{1000};
    SimJob cke = SimJob::concurrent(cfg, Cycle{2000},
                                    makeWorkload({"sv", "ks"}), spec);
    for (SimJob *job : {&iso, &cke}) {
        job->series.issue = true;
        job->series.l1d = true;
        job->series.interval = Cycle{500};
    }

    SweepEngine engine(1);
    const std::vector<SimResult> results = engine.sweep({iso, cke});
    // The pins must cover populated results: series, stats, partition.
    ASSERT_EQ(results[0].isolated->issue_series.size(), 1u);
    ASSERT_FALSE(results[0].isolated->l1d_series[0].bins().empty());
    ASSERT_GT(results[0].isolated->stats.mem_requests, 0u);
    ASSERT_EQ(results[1].concurrent->l1d_series.size(), 2u);
    ASSERT_FALSE(results[1].concurrent->issue_series[1].bins().empty());
    ASSERT_FALSE(results[1].concurrent->partition.empty());
    const std::uint64_t want[] = {0x7ea40e831c9e2b93, 0x36ddd38bb5ae7842};
    for (std::size_t i = 0; i < results.size(); ++i) {
        const std::uint64_t got = fnvOf(encodeSimResult(results[i]));
        char hex[32];
        std::snprintf(hex, sizeof hex, "0x%016llx",
                      static_cast<unsigned long long>(got));
        EXPECT_EQ(got, want[i]) << (i == 0 ? "isolated" : "concurrent")
                                << ": got " << hex;
    }
}

} // namespace
} // namespace ckesim

/**
 * @file
 * Pinned snapshot fingerprints: end-of-run GpuSnapshot fingerprints
 * of short makeSmallConfig() runs, recorded from a reference build,
 * over both warp-scheduler policies, the scheme families that gate
 * issue or the L1D differently, and one M+M and one C+M pair.
 *
 * Any change to simulated behaviour moves a fingerprint. A change
 * meant to be behaviour-preserving (a hot-path rewrite) must leave all
 * of them alone; a change meant to alter results re-records them and
 * says why.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "gpu.hpp"

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

} // namespace
} // namespace ckesim

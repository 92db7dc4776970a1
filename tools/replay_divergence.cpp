/**
 * @file
 * Replay-divergence detector: proves Gpu::restore(Gpu::snapshot(t))
 * followed by run(total - t) is bit-identical to running straight
 * through, for several scheme configurations and randomized
 * mid-run kill points, with and without injected pipeline faults.
 *
 * This is the end-to-end guarantee the crash-safety layer rests on:
 * if replay from a checkpoint can diverge, a resumed sweep's numbers
 * cannot be trusted. The tool exits non-zero (and prints the first
 * mismatching fingerprint pair) on any divergence; CI runs it as the
 * `replay_divergence` ctest target.
 *
 * Usage: replay_divergence [--trials N] [--seed S]
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "gpu.hpp"
#include "kernels/workload.hpp"
#include "sim/config.hpp"
#include "sim/rng.hpp"

namespace {

using namespace ckesim;

/** Everything two equivalent runs must agree on, bit for bit. */
struct Outcome
{
    std::uint64_t fingerprint = 0;
    std::uint64_t cycle = 0;
    std::vector<double> ipc;
};

Outcome
outcomeOf(const Gpu &gpu)
{
    Outcome out;
    const GpuSnapshot snap = gpu.snapshot();
    out.fingerprint = snap.fingerprint;
    out.cycle = snap.cycle.get();
    for (int k = 0; k < gpu.numKernels(); ++k)
        out.ipc.push_back(gpu.ipc(KernelId{k}));
    return out;
}

bool
sameOutcome(const Outcome &a, const Outcome &b, std::string &why)
{
    if (a.fingerprint != b.fingerprint) {
        why = "state fingerprint mismatch";
        return false;
    }
    if (a.cycle != b.cycle) {
        why = "final cycle mismatch";
        return false;
    }
    if (a.ipc.size() != b.ipc.size()) {
        why = "kernel count mismatch";
        return false;
    }
    for (std::size_t k = 0; k < a.ipc.size(); ++k)
        if (std::memcmp(&a.ipc[k], &b.ipc[k], sizeof(double)) != 0) {
            why = "ipc[" + std::to_string(k) + "] differs";
            return false;
        }
    return true;
}

/** One scheme configuration under test. */
struct CaseSpec
{
    std::string name;
    SchemeSpec spec;
    std::uint64_t total_cycles = 0;
};

/**
 * Straight run with a manual checkpoint at @p kill, then a fresh Gpu
 * restored from that checkpoint and run to the end. Returns true when
 * both machines finish bit-identical.
 */
bool
replayTrial(const GpuConfig &cfg, const Workload &wl,
            const CaseSpec &cs, std::uint64_t kill)
{
    Gpu straight(cfg, wl, cs.spec);
    straight.run(Cycle{kill});
    const GpuSnapshot ckpt = straight.snapshot();
    straight.run(Cycle{cs.total_cycles - kill});
    const Outcome want = outcomeOf(straight);

    Gpu resumed(cfg, wl, cs.spec);
    resumed.restore(ckpt);
    resumed.run(Cycle{cs.total_cycles - kill});
    const Outcome got = outcomeOf(resumed);

    std::string why;
    if (sameOutcome(want, got, why)) {
        std::printf("  PASS %-14s kill=%-7" PRIu64
                    " fp=%016" PRIx64 "\n",
                    cs.name.c_str(), kill, want.fingerprint);
        return true;
    }
    std::printf("  FAIL %-14s kill=%-7" PRIu64 " %s\n"
                "       straight fp=%016" PRIx64 " cycle=%" PRIu64
                "\n"
                "       resumed  fp=%016" PRIx64 " cycle=%" PRIu64
                "\n",
                cs.name.c_str(), kill, why.c_str(), want.fingerprint,
                want.cycle, got.fingerprint, got.cycle);
    return false;
}

std::vector<CaseSpec>
buildCases()
{
    std::vector<CaseSpec> cases;

    // The three scheme families the paper evaluates: SMK's DRF
    // partition, dynamic Warped-Slicer (checkpoints must survive the
    // profiling-phase boundary), and the full QBMI+DMIL mechanism.
    {
        CaseSpec cs;
        cs.name = "smk";
        cs.spec = makeScheme(PartitionScheme::SmkDrf, BmiMode::None,
                             MilMode::None);
        cs.total_cycles = 12000;
        cases.push_back(cs);
    }
    {
        CaseSpec cs;
        cs.name = "ws";
        cs.spec = makeScheme(PartitionScheme::WarpedSlicer,
                             BmiMode::None, MilMode::None);
        cs.spec.ws_profile_window = Cycle{5000};
        cs.total_cycles = 14000;
        cases.push_back(cs);
    }
    {
        CaseSpec cs;
        cs.name = "qbmi-dmil";
        cs.spec = makeScheme(PartitionScheme::WarpedSlicer,
                             BmiMode::QBMI, MilMode::Dynamic);
        cs.spec.ws_profile_window = Cycle{5000};
        cs.total_cycles = 14000;
        cases.push_back(cs);
    }

    // Fault-injection soak: replay must stay exact even while the
    // pipeline is being actively degraded (fill delays, forced
    // reservation failures, a frozen DRAM channel), because the
    // injector's budgets are part of the snapshot.
    {
        CaseSpec cs;
        cs.name = "qbmi-faulted";
        cs.spec = makeScheme(PartitionScheme::WarpedSlicer,
                             BmiMode::QBMI, MilMode::Dynamic);
        cs.spec.ws_profile_window = Cycle{5000};
        FaultSpec delay;
        delay.kind = FaultKind::DelayFill;
        delay.begin = Cycle{2000};
        delay.end = Cycle{9000};
        delay.budget = 64;
        delay.delay = Cycle{150};
        cs.spec.faults.push_back(delay);
        FaultSpec rsfail;
        rsfail.kind = FaultKind::ForceRsFail;
        rsfail.begin = Cycle{4000};
        rsfail.end = Cycle{6000};
        rsfail.budget = 128;
        cs.spec.faults.push_back(rsfail);
        cs.total_cycles = 14000;
        cases.push_back(cs);
    }
    {
        CaseSpec cs;
        cs.name = "smk-faulted";
        cs.spec = makeScheme(PartitionScheme::SmkDrf, BmiMode::None,
                             MilMode::None);
        FaultSpec freeze;
        freeze.kind = FaultKind::FreezeDram;
        freeze.begin = Cycle{3000};
        freeze.end = Cycle{5000};
        freeze.target = 0;
        cs.spec.faults.push_back(freeze);
        cs.total_cycles = 12000;
        cases.push_back(cs);
    }
    return cases;
}

} // namespace

int
main(int argc, char **argv)
{
    int trials = 3;
    std::uint64_t seed = 0x7265706c6179ULL; // "replay", fixed default
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc)
            trials = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
            seed = static_cast<std::uint64_t>(
                std::strtoull(argv[++i], nullptr, 0));
        else {
            std::fprintf(stderr,
                         "usage: %s [--trials N] [--seed S]\n",
                         argv[0]);
            return 2;
        }
    }

    const GpuConfig cfg = makeSmallConfig(4, 4);
    const Workload wl = makeWorkload({"bp", "sv"});
    Rng rng(seed);

    int failures = 0;
    for (const CaseSpec &cs : buildCases()) {
        std::printf("case %s (%d kill points):\n", cs.name.c_str(),
                    trials);
        for (int t = 0; t < trials; ++t) {
            // Kill somewhere in the middle half of the run, so every
            // phase boundary (profiling end, fault windows) gets
            // straddled across trials.
            const std::uint64_t lo = cs.total_cycles / 4;
            const std::uint64_t span = cs.total_cycles / 2;
            const std::uint64_t kill = lo + rng.nextBelow(span);
            if (!replayTrial(cfg, wl, cs, kill))
                ++failures;
        }
    }

    if (failures > 0) {
        std::printf("replay divergence detected in %d trial(s)\n",
                    failures);
        return 1;
    }
    std::printf("all replay trials bit-identical\n");
    return 0;
}

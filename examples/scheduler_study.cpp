/**
 * @file
 * Example: warp-scheduler and L1D-capacity what-if study.
 *
 * Usage: scheduler_study [kernelA] [kernelB] [cycles]
 *
 * Replays one CKE workload across the Section 4.3 sensitivity axes —
 * GTO vs LRR warp scheduling and 24/48/96KB L1 D-caches — reporting
 * how much of DMIL's benefit survives each change. Demonstrates how
 * to customize GpuConfig and fan a multi-configuration study out on
 * the SweepEngine: all ten simulations (5 configs x 2 schemes) run
 * as one sweep.
 */

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "kernels/workload.hpp"
#include "metrics/experiment.hpp"
#include "metrics/sweep_engine.hpp"
#include "sim/check.hpp"

using namespace ckesim;

namespace {

int
run(int argc, char **argv)
{
    const std::string ka = argc > 1 ? argv[1] : "bp";
    const std::string kb = argc > 2 ? argv[2] : "ks";
    const Cycle cycles{argc > 3 ? parseCount("cycles", argv[3]) : 40000};
    const Workload w = makeWorkload({ka, kb});

    std::printf("workload %s: WS vs WS-DMIL across sensitivity "
                "axes\n\n",
                w.name().c_str());

    std::vector<std::pair<std::string, GpuConfig>> configs;
    configs.emplace_back("GTO, 24KB L1D (base)", GpuConfig{});
    {
        GpuConfig cfg;
        cfg.sm.sched_policy = SchedPolicy::LRR;
        configs.emplace_back("LRR, 24KB L1D", cfg);
    }
    {
        GpuConfig cfg;
        cfg.l1d.size_bytes = 48 * 1024;
        configs.emplace_back("GTO, 48KB L1D", cfg);
    }
    {
        GpuConfig cfg;
        cfg.l1d.size_bytes = 96 * 1024;
        configs.emplace_back("GTO, 96KB L1D", cfg);
    }
    {
        GpuConfig cfg;
        cfg.l1d.num_mshrs = 256;
        configs.emplace_back("GTO, 256 MSHRs", cfg);
    }

    SweepEngine engine(jobsFromEnv());
    std::vector<SimJob> jobs;
    for (const auto &[label, cfg] : configs)
        for (NamedScheme s : {NamedScheme::WS, NamedScheme::WS_DMIL})
            jobs.push_back(SimJob::concurrent(cfg, cycles, w, s));
    const std::vector<SimResult> results = engine.sweep(jobs);

    std::size_t idx = 0;
    for (const auto &[label, cfg] : configs) {
        const ConcurrentResult &base = *results[idx++].concurrent;
        const ConcurrentResult &dmil = *results[idx++].concurrent;
        std::printf("%-22s WS %6.3f -> %6.3f (%+5.1f%%)   ANTT "
                    "%6.3f -> %6.3f   rsfail %5.2f -> %5.2f\n",
                    label.c_str(), base.weighted_speedup,
                    dmil.weighted_speedup,
                    100.0 * (dmil.weighted_speedup /
                                 base.weighted_speedup -
                             1.0),
                    base.antt_value, dmil.antt_value,
                    (base.stats[0].l1dRsFailRate() +
                     base.stats[1].l1dRsFailRate()) /
                        2,
                    (dmil.stats[0].l1dRsFailRate() +
                     dmil.stats[1].l1dRsFailRate()) /
                        2);
    }

    std::printf("\npaper (Section 4.3): the schemes stay effective "
                "under LRR and with bigger caches/MSHR files, with "
                "gains shrinking as capacity removes contention.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const SimError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
}

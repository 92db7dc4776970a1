/**
 * @file
 * Quickstart: run one concurrent-kernel workload under the paper's
 * schemes and print Weighted Speedup / ANTT / fairness.
 *
 * Usage: quickstart [kernelA] [kernelB] [cycles]
 *
 * This is the 30-second tour of the library: build a workload from
 * two of the thirteen benchmark kernels, evaluate intra-SM sharing
 * with Warped-Slicer TB partitioning, then add the paper's QBMI
 * (balanced memory request issuing) and DMIL (dynamic memory
 * instruction limiting) and watch the memory-pipeline interference
 * drop. The five schemes run in parallel on a SweepEngine (set
 * CKESIM_JOBS to bound the worker count) and share one pair of
 * memoized isolated baselines.
 */

#include <cstdio>
#include <string>
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
    const std::string kb = argc > 2 ? argv[2] : "sv";
    const Cycle cycles{argc > 3 ? parseCount("cycles", argv[3]) : 60000};
    const int num_sms = argc > 4 ? parseCount("num_sms", argv[4]) : 8;

    GpuConfig cfg;
    cfg.num_sms = num_sms;
    cfg.dram.num_channels = num_sms;
    SweepEngine engine(jobsFromEnv());

    const Workload wl = makeWorkload({ka, kb});
    std::printf("workload %s (%s)\n\n", wl.name().c_str(),
                workloadClassName(wl.cls()).c_str());

    const std::vector<NamedScheme> schemes = {
        NamedScheme::Spatial,     NamedScheme::WS,
        NamedScheme::WS_QBMI,     NamedScheme::WS_DMIL,
        NamedScheme::WS_QBMI_DMIL};

    std::vector<SimJob> jobs;
    for (NamedScheme s : schemes)
        jobs.push_back(SimJob::concurrent(cfg, cycles, wl, s));
    const std::vector<SimResult> results = engine.sweep(jobs);

    std::printf("%-14s %8s %8s %8s   %s\n", "scheme", "WS", "ANTT",
                "fair", "norm IPC per kernel");
    for (std::size_t i = 0; i < schemes.size(); ++i) {
        const ConcurrentResult &r = *results[i].concurrent;
        std::printf("%-14s %8.3f %8.3f %8.3f   [",
                    schemeName(schemes[i]).c_str(),
                    r.weighted_speedup, r.antt_value, r.fairness);
        for (std::size_t k = 0; k < r.norm_ipc.size(); ++k)
            std::printf("%s%.3f", k ? ", " : "", r.norm_ipc[k]);
        std::printf("]  miss[");
        for (std::size_t k = 0; k < r.stats.size(); ++k)
            std::printf("%s%.2f", k ? ", " : "",
                        r.stats[k].l1dMissRate());
        std::printf("]  rsfail[");
        for (std::size_t k = 0; k < r.stats.size(); ++k)
            std::printf("%s%.1f", k ? ", " : "",
                        r.stats[k].l1dRsFailRate());
        std::printf("]");
        if (!r.partition.empty()) {
            std::printf("  TBs(");
            for (std::size_t k = 0; k < r.partition.size(); ++k)
                std::printf("%s%d", k ? "," : "", r.partition[k]);
            std::printf(")");
        }
        std::printf("\n");
    }
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

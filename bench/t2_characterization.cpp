/**
 * @file
 * Reproduces Table 2: per-benchmark static occupancies, dynamic
 * Cinst/Minst and Req/Minst, isolated L1D miss and rsfail rates, and
 * the compute/memory classification (>20% LSU stall cycles => M,
 * Section 2.4).
 */

#include "experiments.hpp"

#include "kernels/profile.hpp"
#include "metrics/experiment.hpp"

namespace ckesim::eval {

void
runTable2()
{
    SweepEngine &engine = benchEngine();
    const GpuConfig cfg = benchConfig();
    const Cycle cycles = benchCycles();

    std::vector<SimJob> jobs;
    for (const KernelProfile &p : benchmarkSuite())
        jobs.push_back(SimJob::isolated(cfg, cycles, p));
    const std::vector<SimResult> results = engine.sweep(jobs);

    printHeader("Table 2: Benchmark characterization "
                "(isolated execution)");
    std::printf("%-5s %6s %7s %9s %8s %10s %9s %10s %12s %5s\n",
                "bench", "RF_oc", "SMEM_oc", "Thread_oc", "TB_oc",
                "Cinst/Min", "Req/Minst", "l1d_miss", "l1d_rsfail",
                "type");

    std::size_t idx = 0;
    for (const KernelProfile &p : benchmarkSuite()) {
        const IsolatedResult &res = *results[idx++].isolated;
        const SmStats &sm = res.sm_stats;
        const double lsu_stall = sm.lsuStallFraction();
        const bool memory_type = lsu_stall > 0.20;

        std::printf(
            "%-5s %5.1f%% %6.1f%% %8.1f%% %7.1f%% %10.1f %9.1f "
            "%10.2f %12.2f %5s\n",
            p.name.c_str(), 100.0 * p.rfOccupancy(cfg.sm),
            100.0 * p.smemOccupancy(cfg.sm),
            100.0 * p.threadOccupancy(cfg.sm),
            100.0 * p.tbOccupancy(cfg.sm), res.stats.cinstPerMinst(),
            res.stats.reqPerMinst(), res.stats.l1dMissRate(),
            res.stats.l1dRsFailRate(), memory_type ? "M" : "C");
    }

    std::printf("\npaper: 7 compute-intensive (C), "
                "6 memory-intensive (M)\n");
}

} // namespace ckesim::eval

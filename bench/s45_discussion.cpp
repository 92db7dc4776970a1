/**
 * @file
 * Reproduces the Section 4.5 "Further Discussion" ablations:
 *
 * 1. Partitioning the cache-miss-related resources (an even per-
 *    kernel MSHR split) "cannot improve performance" because the
 *    in-order LSU still blocks behind saturated co-runner accesses.
 * 2. L1D cache bypassing for the memory-intensive kernel relieves
 *    line contention but "offloads transactions to the lower
 *    levels", so it does not replace memory instruction limiting —
 *    and composes with it.
 * 3. Local vs global DMIL (Section 3.3.2): with every SM running the
 *    same kernel pair, the cheaper global generator tracks local
 *    DMIL closely; the paper keeps local DMIL for flexibility.
 */

#include "experiments.hpp"

#include <cmath>

#include "metrics/experiment.hpp"

namespace ckesim::eval {
namespace {

const std::vector<std::vector<std::string>> kPairs = {
    {"bp", "sv"}, {"bp", "ks"}, {"sv", "ks"}, {"pf", "bp"}};

} // namespace

void
runDiscussion()
{
    SweepEngine &engine = benchEngine();
    const GpuConfig cfg = benchConfig();
    const Cycle cycles = benchCycles();

    // Six spec variants per pair, all swept at once.
    std::vector<Workload> workloads;
    std::vector<SimJob> jobs;
    for (const auto &names : kPairs) {
        const Workload w = makeWorkload(names);
        workloads.push_back(w);

        const SchemeSpec base =
            engine.makeNamedScheme(cfg, cycles, NamedScheme::WS, w);

        SchemeSpec mshr = base;
        mshr.mshr_partition = true;

        // Bypass the memory-intensive member(s).
        SchemeSpec bypass = base;
        for (int k = 0; k < w.numKernels(); ++k)
            if (w.kernels[static_cast<std::size_t>(k)]
                    ->isMemoryIntensive())
                bypass.bypass_l1d[static_cast<std::size_t>(k)] =
                    true;

        const SchemeSpec dmil = engine.makeNamedScheme(
            cfg, cycles, NamedScheme::WS_DMIL, w);

        SchemeSpec dmil_bypass = dmil;
        dmil_bypass.bypass_l1d = bypass.bypass_l1d;

        SchemeSpec global = dmil;
        global.global_dmil = true;

        for (const SchemeSpec &spec :
             {base, mshr, bypass, dmil, dmil_bypass, global})
            jobs.push_back(SimJob::concurrent(cfg, cycles, w, spec));
    }
    const std::vector<SimResult> results = engine.sweep(jobs);

    printHeader("Section 4.5: MSHR partitioning / L1D bypassing / "
                "global DMIL (Weighted Speedup)");
    std::printf("%-8s %8s %10s %10s %8s %10s %10s\n", "pair", "WS",
                "MSHRpart", "bypass(M)", "DMIL", "DMIL+byp",
                "globDMIL");

    double g[6] = {0, 0, 0, 0, 0, 0};
    std::size_t idx = 0;
    for (const Workload &w : workloads) {
        double v[6];
        for (double &x : v)
            x = results[idx++].concurrent->weighted_speedup;
        std::printf("%-8s %8.3f %10.3f %10.3f %8.3f %10.3f %10.3f\n",
                    w.name().c_str(), v[0], v[1], v[2], v[3], v[4],
                    v[5]);
        for (int i = 0; i < 6; ++i)
            g[i] += std::log(std::max(v[i], 1e-9));
    }
    for (double &x : g)
        x = std::exp(x / static_cast<double>(kPairs.size()));
    std::printf("%-8s %8.3f %10.3f %10.3f %8.3f %10.3f %10.3f\n",
                "gmean", g[0], g[1], g[2], g[3], g[4], g[5]);

    std::printf("\npaper: MSHR partitioning does not beat WS (in-"
                "order LSU blocking); bypassing alone shifts pressure "
                "downstream; DMIL remains the effective mechanism, "
                "and global DMIL tracks local DMIL when all SMs run "
                "the same pair\n");
}

} // namespace ckesim::eval

/**
 * @file
 * Reproduces Figure 9: SMIL — Weighted Speedup as a function of the
 * static in-flight memory instruction limits (Limit_k0, Limit_k1) for
 * one workload from each class: pf+bp (C+C), bp+ks (C+M), sv+ks
 * (M+M). The paper's signatures: C+C wants no limiting; C+M improves
 * when the memory kernel's limit is small; M+M has an interior
 * optimum (the paper finds (3,1) for sv+ks).
 */

#include "experiments.hpp"

#include "core/mil.hpp"
#include "metrics/experiment.hpp"

namespace ckesim::eval {
namespace {

std::string
label(int l)
{
    return l == kSmilInf ? std::string("Inf") : std::to_string(l);
}

} // namespace

void
runFigure9()
{
    SweepEngine &engine = benchEngine();
    const GpuConfig cfg = benchConfig();
    const Cycle cycles = benchCycles();
    const std::vector<int> grid = smilLimitGrid(fullMode());
    const std::vector<Workload> pairs = {makeWorkload({"pf", "bp"}),
                                         makeWorkload({"bp", "ks"}),
                                         makeWorkload({"sv", "ks"})};

    // One job per (pair, limit, limit) grid point; the whole sweep
    // fans out across the engine and the per-kernel isolated
    // baselines are simulated once and shared by all grid points.
    std::vector<SimJob> jobs;
    for (const Workload &w : pairs) {
        for (int l0 : grid) {
            for (int l1 : grid) {
                SchemeSpec spec =
                    makeScheme(PartitionScheme::WarpedSlicer,
                               BmiMode::None, MilMode::Static);
                spec.smil_limits[0] = l0;
                spec.smil_limits[1] = l1;
                jobs.push_back(
                    SimJob::concurrent(cfg, cycles, w, spec));
            }
        }
    }
    const std::vector<SimResult> results = engine.sweep(jobs);

    std::size_t idx = 0;
    for (const Workload &w : pairs) {
        printHeader("Figure 9: SMIL sweep for " + w.name() + " (" +
                    workloadClassName(w.cls()) +
                    "), Weighted Speedup");
        std::printf("%10s", "k0\\k1");
        for (int l1 : grid)
            std::printf(" %6s", label(l1).c_str());
        std::printf("\n");

        double best = 0.0;
        int best_l0 = kSmilInf, best_l1 = kSmilInf;
        for (int l0 : grid) {
            std::printf("%10s", label(l0).c_str());
            for (int l1 : grid) {
                const ConcurrentResult &res =
                    *results[idx++].concurrent;
                std::printf(" %6.3f", res.weighted_speedup);
                if (res.weighted_speedup > best) {
                    best = res.weighted_speedup;
                    best_l0 = l0;
                    best_l1 = l1;
                }
            }
            std::printf("\n");
        }
        std::printf("optimum: (%s, %s) with WS %.3f\n",
                    label(best_l0).c_str(), label(best_l1).c_str(),
                    best);
    }
    std::printf("\npaper: pf+bp monotone in both limits (no "
                "throttling wanted); bp+ks best with small Limit_k1; "
                "sv+ks interior optimum near (3,1)\n");
}

} // namespace ckesim::eval

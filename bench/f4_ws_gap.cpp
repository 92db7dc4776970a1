/**
 * @file
 * Reproduces Figure 4: theoretical vs achieved Weighted Speedup of
 * dynamic Warped-Slicer by workload class. The paper's signature:
 * C+C achieves close to the theoretical WS, while interference makes
 * C+M and M+M fall well short.
 */

#include "experiments.hpp"

#include "metrics/experiment.hpp"

namespace ckesim::eval {

void
runFigure4()
{
    SweepEngine &engine = benchEngine();
    const GpuConfig cfg = benchConfig();
    const Cycle cycles = benchCycles();

    const std::vector<Workload> pairs = benchPairs();
    std::vector<SimJob> jobs;
    for (const Workload &w : pairs)
        jobs.push_back(
            SimJob::concurrent(cfg, cycles, w, NamedScheme::WS));
    const std::vector<SimResult> results = engine.sweep(jobs);

    ClassAggregate theoretical, achieved;
    std::size_t idx = 0;
    for (const Workload &w : pairs) {
        const ConcurrentResult &res = *results[idx++].concurrent;
        theoretical.add(w.cls(), res.theoretical_ws);
        achieved.add(w.cls(), res.weighted_speedup);
    }

    printHeader("Figure 4: dynamic Warped-Slicer, theoretical vs "
                "achieved Weighted Speedup (geomean)");
    std::printf("%-6s %12s %10s %8s\n", "class", "theoretical",
                "achieved", "gap");
    for (WorkloadClass cls :
         {WorkloadClass::CC, WorkloadClass::CM, WorkloadClass::MM}) {
        const double t = theoretical.geomean(cls);
        const double a = achieved.geomean(cls);
        std::printf("%-6s %12.3f %10.3f %7.1f%%\n", classLabel(cls),
                    t, a, t > 0 ? 100.0 * (t - a) / t : 0.0);
    }
    const double t_all = theoretical.geomeanAll();
    const double a_all = achieved.geomeanAll();
    std::printf("%-6s %12.3f %10.3f %7.1f%%\n", "ALL", t_all, a_all,
                100.0 * (t_all - a_all) / t_all);
    std::printf("\npaper: C+C nearly closes the gap; C+M and M+M "
                "fall far short of theoretical\n");
}

} // namespace ckesim::eval

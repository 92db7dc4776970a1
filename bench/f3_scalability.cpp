/**
 * @file
 * Reproduces Figure 3: (a) per-SM performance scalability of bp and
 * sv as the TB count per SM grows (bp scales near-linearly; sv rises
 * then falls), and (b) the Warped-Slicer sweet point for bp+sv with
 * its theoretical Weighted Speedup (paper: sweet point (9,4),
 * theoretical WS 1.94).
 */

#include "experiments.hpp"

#include "core/warped_slicer.hpp"
#include "metrics/experiment.hpp"

namespace ckesim::eval {

void
runScalability()
{
    SweepEngine &engine = benchEngine();
    const GpuConfig cfg = benchConfig();
    const Cycle cycles = benchCycles();
    const KernelProfile &bp = findProfile("bp");
    const KernelProfile &sv = findProfile("sv");

    // The engine fans the per-TB-quota isolated runs of both curves
    // out in parallel and memoizes each point.
    const ScalabilityCurve bp_curve =
        engine.scalability(cfg, cycles, bp);
    const ScalabilityCurve sv_curve =
        engine.scalability(cfg, cycles, sv);

    printHeader("Figure 3(a): normalized IPC vs TBs per SM "
                "(isolated)");
    const double bp_max = bp_curve.at(bp_curve.maxTbs());
    const double sv_max = sv_curve.at(sv_curve.maxTbs());
    std::printf("%4s %12s %12s\n", "TB#", "bp", "sv");
    const int tbs = std::max(bp_curve.maxTbs(), sv_curve.maxTbs());
    for (int t = 1; t <= tbs; ++t) {
        std::printf("%4d %12s %12s\n", t,
                    t <= bp_curve.maxTbs()
                        ? fmt(bp_curve.at(t) / bp_max).c_str()
                        : "-",
                    t <= sv_curve.maxTbs()
                        ? fmt(sv_curve.at(t) / sv_max).c_str()
                        : "-");
    }

    // Shape checks the paper relies on.
    const bool bp_monotonic_ish =
        bp_curve.at(bp_curve.maxTbs()) > 0.8 * bp_max &&
        bp_curve.at(1) < 0.5 * bp_max;
    int sv_peak_tb = 1;
    for (int t = 1; t <= sv_curve.maxTbs(); ++t)
        if (sv_curve.at(t) > sv_curve.at(sv_peak_tb))
            sv_peak_tb = t;
    const bool sv_peaks_early = sv_peak_tb < sv_curve.maxTbs();

    printHeader("Figure 3(b): Warped-Slicer sweet point for bp+sv");
    const Workload wl = makeWorkload({"bp", "sv"});
    const SweetPoint sweet =
        findSweetPoint({bp_curve, sv_curve}, wl.kernels, cfg.sm);
    std::printf("sweet point: (%d, %d)   theoretical WS: %s\n",
                sweet.tbs[0], sweet.tbs[1],
                fmt(sweet.theoretical_ws).c_str());
    std::printf("paper: sweet point (9, 4), theoretical WS 1.94\n");
    std::printf("bp scales up: %s   sv peaks before max: %s "
                "(peak at %d TBs)\n",
                bp_monotonic_ish ? "yes" : "NO",
                sv_peaks_early ? "yes" : "NO", sv_peak_tb);
}

} // namespace ckesim::eval

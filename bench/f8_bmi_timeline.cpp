/**
 * @file
 * Reproduces Figure 8: warp instructions issued per 1K cycles for
 * bp+sv under WS, WS-RBMI and WS-QBMI, plus the normalized-IPC bars
 * of Figure 8(d). The paper's signature: balanced memory issuing lets
 * the compute-intensive kernel issue more instructions (bp's
 * normalized IPC rises 0.39 -> 0.45 (RBMI) -> 0.48 (QBMI)) while sv
 * stays roughly stable.
 */

#include "experiments.hpp"

#include "metrics/experiment.hpp"

namespace ckesim::eval {
namespace {

const NamedScheme kSchemes[] = {NamedScheme::WS, NamedScheme::WS_RBMI,
                                NamedScheme::WS_QBMI};

} // namespace

void
runFigure8()
{
    SweepEngine &engine = benchEngine();
    const GpuConfig cfg = benchConfig();
    const Cycle cycles = benchCycles();
    const Workload w = makeWorkload({"bp", "sv"});
    const Cycle interval{1000};

    // One job per scheme captures the issue series AND the metrics in
    // a single simulation (the pre-engine code ran each scheme twice).
    std::vector<SimJob> jobs;
    for (NamedScheme s : kSchemes) {
        SimJob job = SimJob::concurrent(cfg, cycles, w, s);
        job.series.issue = true;
        job.series.interval = interval;
        jobs.push_back(job);
    }
    const std::vector<SimResult> results = engine.sweep(jobs);

    printHeader("Figure 8(a-c): warp instructions issued / 1K "
                "cycles, bp+sv");
    std::printf("%8s", "cycle(k)");
    for (NamedScheme s : kSchemes)
        std::printf(" %9s:bp %9s:sv", schemeName(s).c_str(),
                    schemeName(s).c_str());
    std::printf("\n");
    const Cycle window = makeScheme(PartitionScheme::WarpedSlicer,
                                    BmiMode::None, MilMode::None)
                             .ws_profile_window;
    const std::size_t bins =
        static_cast<std::size_t>((window + cycles) / interval);
    const std::size_t step = std::max<std::size_t>(bins / 16, 1);
    for (std::size_t b = 0; b < bins; b += step) {
        std::printf("%8zu", b);
        for (const SimResult &r : results)
            std::printf(" %12llu %12llu",
                        static_cast<unsigned long long>(
                            r.concurrent->issue_series[0].binCount(b)),
                        static_cast<unsigned long long>(
                            r.concurrent->issue_series[1].binCount(
                                b)));
        std::printf("\n");
    }

    printHeader("Figure 8(d): normalized IPC");
    std::printf("%-10s %8s %8s\n", "scheme", "bp", "sv");
    for (std::size_t i = 0; i < std::size(kSchemes); ++i) {
        const ConcurrentResult &r = *results[i].concurrent;
        std::printf("%-10s %8.3f %8.3f\n",
                    schemeName(kSchemes[i]).c_str(), r.norm_ipc[0],
                    r.norm_ipc[1]);
    }
    std::printf("\npaper: bp 0.39 (WS) -> 0.45 (WS-RBMI) -> 0.48 "
                "(WS-QBMI); sv roughly stable\n");
}

} // namespace ckesim::eval

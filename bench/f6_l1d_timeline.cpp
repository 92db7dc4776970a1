/**
 * @file
 * Reproduces Figure 6: L1D accesses per 1K-cycle window for bp and sv
 * (a) each in isolation and (b,c) concurrently under plain
 * Warped-Slicer. The paper's signature: both kernels sustain healthy
 * access rates alone, but under concurrent execution sv dominates the
 * L1D while bp starves.
 */

#include "experiments.hpp"

#include "metrics/experiment.hpp"

namespace ckesim::eval {

void
runFigure6()
{
    SweepEngine &engine = benchEngine();
    const GpuConfig cfg = benchConfig();
    const Cycle cycles = benchCycles();
    const Cycle interval{1000};

    auto print_series = [&](const char *title,
                            const std::vector<const TimeSeries *> &ts,
                            const std::vector<std::string> &names,
                            Cycle from) {
        printHeader(title);
        std::printf("%8s", "cycle(k)");
        for (const std::string &n : names)
            std::printf(" %10s", n.c_str());
        std::printf("\n");
        const std::size_t bins =
            static_cast<std::size_t>((from + cycles) / interval);
        const std::size_t step = std::max<std::size_t>(bins / 20, 1);
        for (std::size_t b = static_cast<std::size_t>(from / interval);
             b < bins; b += step) {
            std::printf("%8zu", b);
            for (const TimeSeries *t : ts)
                std::printf(" %10llu",
                            static_cast<unsigned long long>(
                                t->binCount(b)));
            std::printf("\n");
        }
    };

    // (a)/(b) isolated and (c) concurrent, as one engine sweep. The
    // series request is part of each job's content hash, so these do
    // not collide with series-free isolated baselines elsewhere.
    SimJob bp_job = SimJob::isolated(cfg, cycles, findProfile("bp"));
    SimJob sv_job = SimJob::isolated(cfg, cycles, findProfile("sv"));
    bp_job.series.l1d = sv_job.series.l1d = true;
    bp_job.series.interval = sv_job.series.interval = interval;

    const Workload pair = makeWorkload({"bp", "sv"});
    const SchemeSpec ws_spec = makeScheme(
        PartitionScheme::WarpedSlicer, BmiMode::None, MilMode::None);
    SimJob cke_job = SimJob::concurrent(cfg, cycles, pair, ws_spec);
    cke_job.series.l1d = true;
    cke_job.series.interval = interval;

    const std::vector<SimResult> results =
        engine.sweep({bp_job, sv_job, cke_job});
    const TimeSeries &bp_iso = results[0].isolated->l1d_series[0];
    const TimeSeries &sv_iso = results[1].isolated->l1d_series[0];
    const TimeSeries &bp_cke = results[2].concurrent->l1d_series[0];
    const TimeSeries &sv_cke = results[2].concurrent->l1d_series[1];

    print_series("Figure 6(a,b): L1D accesses / 1K cycles, isolated",
                 {&bp_iso, &sv_iso}, {"bp", "sv"}, Cycle{});
    print_series("Figure 6(c): L1D accesses / 1K cycles, bp+sv "
                 "concurrent (WS)",
                 {&bp_cke, &sv_cke}, {"bp", "sv"}, Cycle{});

    // Aggregate starvation statistic over the measurement phase.
    const Cycle window = ws_spec.ws_profile_window;
    const std::size_t first =
        static_cast<std::size_t>(window / interval) + 1;
    const std::size_t last_iso =
        static_cast<std::size_t>(cycles / interval);
    const double bp_alone = bp_iso.meanOver(1, last_iso);
    const double sv_alone = sv_iso.meanOver(1, last_iso);
    const std::size_t last_cke =
        static_cast<std::size_t>((window + cycles) / interval);
    const double bp_shared = bp_cke.meanOver(first, last_cke);
    const double sv_shared = sv_cke.meanOver(first, last_cke);

    std::printf("\nmean L1D accesses per 1K cycles (per GPU):\n");
    std::printf("  bp: %8.1f alone -> %8.1f shared (%.0f%%)\n",
                bp_alone, bp_shared, 100.0 * bp_shared / bp_alone);
    std::printf("  sv: %8.1f alone -> %8.1f shared (%.0f%%)\n",
                sv_alone, sv_shared, 100.0 * sv_shared / sv_alone);
    std::printf("paper: sv dominates the shared L1D while bp "
                "starves (Figure 6(c))\n");
}

} // namespace ckesim::eval

/**
 * @file
 * Reproduces Figure 12 — the paper's headline evaluation on top of
 * Warped-Slicer: (a) Weighted Speedup, (b) normalized ANTT, (c)
 * normalized fairness, (d) L1D miss rate, (e) L1D rsfail rate, (f)
 * LSU stall fraction and (g) computing resource utilization, by
 * workload class, for Spatial / WS / WS-QBMI / WS-DMIL.
 *
 * Paper headline: average WS 1.13 (Spatial), 1.20 (WS), 1.22
 * (WS-QBMI), 1.49 (WS-DMIL): +1.5% and +24.6% over WS; ANTT improves
 * 40.5% / 56.1%; fairness improves 17.8% / 32.3%.
 */

#include "experiments.hpp"

#include <algorithm>

#include "metrics/experiment.hpp"

namespace ckesim::eval {
namespace {

const NamedScheme kSchemes[] = {NamedScheme::Spatial, NamedScheme::WS,
                                NamedScheme::WS_QBMI,
                                NamedScheme::WS_DMIL};
constexpr std::size_t kWsCol = 1; ///< normalization base column

} // namespace

void
runFigure12()
{
    SweepEngine &engine = benchEngine();
    const GpuConfig cfg = benchConfig();
    const Cycle cycles = benchCycles();

    std::vector<std::string> names;
    for (NamedScheme s : kSchemes)
        names.push_back(schemeName(s));

    const std::vector<Workload> pairs = benchPairs();
    std::vector<SimJob> jobs;
    for (const Workload &w : pairs)
        for (NamedScheme s : kSchemes)
            jobs.push_back(SimJob::concurrent(cfg, cycles, w, s));
    const std::vector<SimResult> results = engine.sweep(jobs);

    ClassTable ws("Figure 12(a): Weighted Speedup", names);
    ClassTable antt_t(
        "Figure 12(b): ANTT normalized to WS (lower is better)",
        names);
    ClassTable fair("Figure 12(c): fairness normalized to WS "
                    "(higher is better)",
                    names);
    ClassTable miss("Figure 12(d): L1D miss rate", names);
    ClassTable rsfail("Figure 12(e): L1D rsfail rate", names);
    ClassTable lsu("Figure 12(f): LSU stall fraction", names);
    ClassTable util("Figure 12(g): computing resource utilization",
                    names);

    std::size_t idx = 0;
    for (const Workload &w : pairs) {
        for (std::size_t s = 0; s < std::size(kSchemes); ++s) {
            const ConcurrentResult &r = *results[idx++].concurrent;
            ws.add(w.cls(), s, r.weighted_speedup);
            antt_t.add(w.cls(), s, r.antt_value);
            fair.add(w.cls(), s, r.fairness);
            KernelStats total;
            for (const KernelStats &k : r.stats)
                total += k;
            miss.add(w.cls(), s, total.l1dMissRate());
            rsfail.add(w.cls(), s,
                       std::max(total.l1dRsFailRate(), 1e-6));
            lsu.add(w.cls(), s,
                    std::max(r.sm_stats.lsuStallFraction(), 1e-6));
            const double slots =
                static_cast<double>(cfg.sm.num_schedulers) *
                r.sm_stats.cycles;
            util.add(w.cls(), s,
                     (r.sm_stats.alu_issue_slots +
                      r.sm_stats.sfu_issue_slots) /
                         std::max(slots, 1.0));
        }
    }

    ws.print();
    antt_t.print(kWsCol);
    fair.print(kWsCol);
    miss.print();
    rsfail.print();
    lsu.print();
    util.print();

    const double ws_all = ws.geomeanAll(1);
    const double qbmi = ws.geomeanAll(2);
    const double dmil = ws.geomeanAll(3);
    std::printf("\nWS improvement over WS: QBMI %+.1f%%, DMIL "
                "%+.1f%%  (paper: +1.5%%, +24.6%%)\n",
                100.0 * (qbmi / ws_all - 1.0),
                100.0 * (dmil / ws_all - 1.0));
    const double antt_ws = antt_t.geomeanAll(1);
    std::printf("ANTT improvement over WS: QBMI %+.1f%%, DMIL "
                "%+.1f%%  (paper: 40.5%%, 56.1%% better)\n",
                100.0 * (1.0 - antt_t.geomeanAll(2) / antt_ws),
                100.0 * (1.0 - antt_t.geomeanAll(3) / antt_ws));
}

} // namespace ckesim::eval

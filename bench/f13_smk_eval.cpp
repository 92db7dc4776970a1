/**
 * @file
 * Reproduces Figure 13: QBMI and DMIL on top of SMK's DRF partition —
 * Weighted Speedup and normalized ANTT by class for SMK-(P+W),
 * SMK-(P+QBMI), SMK-(P+DMIL).
 *
 * Paper headline: average WS 1.10 / 1.15 / 1.40 — +4.4% and +27.2%
 * over SMK-(P+W); ANTT improves 49.2% / 64.6%.
 */

#include "experiments.hpp"

#include "metrics/experiment.hpp"

namespace ckesim::eval {
namespace {

const NamedScheme kSchemes[] = {NamedScheme::SMK_PW,
                                NamedScheme::SMK_P_QBMI,
                                NamedScheme::SMK_P_DMIL};

} // namespace

void
runFigure13()
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

    ClassTable ws("Figure 13(a): Weighted Speedup on SMK partition",
                  names, 14);
    ClassTable antt_t("Figure 13(b): ANTT normalized to SMK-(P+W) "
                      "(lower is better)",
                      names, 14);
    std::size_t idx = 0;
    for (const Workload &w : pairs) {
        for (std::size_t s = 0; s < std::size(kSchemes); ++s) {
            const ConcurrentResult &r = *results[idx++].concurrent;
            ws.add(w.cls(), s, r.weighted_speedup);
            antt_t.add(w.cls(), s, r.antt_value);
        }
    }
    ws.print();
    antt_t.print(0);

    const double base = ws.geomeanAll(0);
    const double qbmi = ws.geomeanAll(1);
    const double dmil = ws.geomeanAll(2);
    std::printf("\nWS improvement over SMK-(P+W): QBMI %+.1f%%, "
                "DMIL %+.1f%%  (paper: +4.4%%, +27.2%%)\n",
                100.0 * (qbmi / base - 1.0),
                100.0 * (dmil / base - 1.0));
}

} // namespace ckesim::eval

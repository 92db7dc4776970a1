/**
 * @file
 * Reproduces Figure 11: QBMI vs DMIL vs their combination on top of
 * Warped-Slicer — (a) Weighted Speedup (class geomeans + the six case
 * pairs), (b) per-kernel L1D miss rates, (c) per-kernel rsfail rates.
 * The paper's signature: the schemes tie on C+C; DMIL wins on C+M and
 * M+M via lower miss and rsfail rates; QBMI+DMIL adds little over
 * DMIL alone.
 */

#include "experiments.hpp"

#include "metrics/experiment.hpp"

namespace ckesim::eval {
namespace {

const std::vector<std::vector<std::string>> kCasePairs = {
    {"pf", "bp"}, {"bp", "hs"}, // C+C
    {"bp", "sv"}, {"bp", "ks"}, // C+M
    {"sv", "ks"}, {"sv", "ax"}, // M+M
};

const NamedScheme kSchemes[] = {NamedScheme::WS_QBMI,
                                NamedScheme::WS_DMIL,
                                NamedScheme::WS_QBMI_DMIL};

} // namespace

void
runFigure11()
{
    SweepEngine &engine = benchEngine();
    const GpuConfig cfg = benchConfig();
    const Cycle cycles = benchCycles();

    std::vector<std::string> scheme_names;
    for (NamedScheme s : kSchemes)
        scheme_names.push_back(schemeName(s));

    // One sweep over all (pair, scheme) jobs; isolated baselines are
    // memoized and shared across the three schemes of each pair.
    const std::vector<Workload> pairs = benchPairs();
    std::vector<SimJob> jobs;
    for (const Workload &w : pairs)
        for (NamedScheme s : kSchemes)
            jobs.push_back(SimJob::concurrent(cfg, cycles, w, s));
    const std::vector<SimResult> results = engine.sweep(jobs);

    ClassTable table(
        "Figure 11(a): Weighted Speedup (class geomeans)",
        scheme_names, 14);
    std::size_t idx = 0;
    for (const Workload &w : pairs)
        for (std::size_t s = 0; s < std::size(kSchemes); ++s)
            table.add(w.cls(), s,
                      results[idx++].concurrent->weighted_speedup);
    table.print();

    printHeader("Figure 11(a-c): six case pairs, per-kernel detail");
    std::printf("%-8s %-14s %8s %9s %9s %11s %11s\n", "pair",
                "scheme", "WS", "miss_k0", "miss_k1", "rsfail_k0",
                "rsfail_k1");
    for (const auto &names : kCasePairs) {
        const Workload w = makeWorkload(names);
        for (NamedScheme s : kSchemes) {
            // Case pairs are part of benchPairs(): memo hits, no
            // extra simulations.
            const ConcurrentResult &r =
                *engine.concurrent(cfg, cycles, w, s);
            std::printf(
                "%-8s %-14s %8.3f %9.3f %9.3f %11.3f %11.3f\n",
                w.name().c_str(), schemeName(s).c_str(),
                r.weighted_speedup, r.stats[0].l1dMissRate(),
                r.stats[1].l1dMissRate(), r.stats[0].l1dRsFailRate(),
                r.stats[1].l1dRsFailRate());
        }
    }
    std::printf("\npaper: WS-DMIL cuts the memory kernel's miss rate "
                "(e.g. ks 0.88 -> 0.52) and rsfail rate, beating "
                "WS-QBMI on C+M and M+M; the combination is only "
                "marginally different from DMIL\n");
}

} // namespace ckesim::eval

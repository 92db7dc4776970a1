/**
 * @file
 * Reproduces Figure 5: the ineffectiveness of CPU-style L1D cache
 * partitioning (UCP) for intra-SM sharing — (a) Weighted Speedup by
 * class and for the six case-study pairs, (b) per-kernel L1D miss
 * rates and (c) per-kernel rsfail rates under WS vs WS-L1DPartition.
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

const NamedScheme kSchemes[] = {NamedScheme::WS, NamedScheme::WS_UCP};

} // namespace

void
runFigure5()
{
    SweepEngine &engine = benchEngine();
    const GpuConfig cfg = benchConfig();
    const Cycle cycles = benchCycles();

    const std::vector<Workload> pairs = benchPairs();
    std::vector<SimJob> jobs;
    for (const Workload &w : pairs)
        for (NamedScheme s : kSchemes)
            jobs.push_back(SimJob::concurrent(cfg, cycles, w, s));
    const std::vector<SimResult> results = engine.sweep(jobs);

    // (a) class geomeans.
    ClassAggregate ws_agg, ucp_agg;
    std::size_t idx = 0;
    for (const Workload &w : pairs) {
        ws_agg.add(w.cls(),
                   results[idx++].concurrent->weighted_speedup);
        ucp_agg.add(w.cls(),
                    results[idx++].concurrent->weighted_speedup);
    }

    printHeader("Figure 5(a): Weighted Speedup, WS vs "
                "WS-L1DPartition (UCP)");
    std::printf("%-8s %8s %16s\n", "class", "WS", "WS-L1DPart");
    for (WorkloadClass cls :
         {WorkloadClass::CC, WorkloadClass::CM, WorkloadClass::MM}) {
        std::printf("%-8s %8.3f %16.3f\n", classLabel(cls),
                    ws_agg.geomean(cls), ucp_agg.geomean(cls));
    }
    std::printf("%-8s %8.3f %16.3f\n", "ALL", ws_agg.geomeanAll(),
                ucp_agg.geomeanAll());

    // Case-study pairs with per-kernel detail. These are part of
    // benchPairs(), so every lookup is a memo hit.
    printHeader("Figure 5(b,c): case pairs, per-kernel miss and "
                "rsfail rates");
    std::printf("%-8s %-16s %10s %12s %12s %14s %14s\n", "pair",
                "scheme", "WS", "miss_k0", "miss_k1", "rsfail_k0",
                "rsfail_k1");
    for (const auto &names : kCasePairs) {
        const Workload w = makeWorkload(names);
        for (NamedScheme s : kSchemes) {
            const ConcurrentResult &r =
                *engine.concurrent(cfg, cycles, w, s);
            std::printf(
                "%-8s %-16s %10.3f %12.3f %12.3f %14.3f %14.3f\n",
                w.name().c_str(), schemeName(s).c_str(),
                r.weighted_speedup, r.stats[0].l1dMissRate(),
                r.stats[1].l1dMissRate(), r.stats[0].l1dRsFailRate(),
                r.stats[1].l1dRsFailRate());
        }
    }
    std::printf("\npaper: UCP fails to improve WS on average — a "
                "lower miss rate for one kernel comes with higher "
                "rsfail for the other (shared miss resources)\n");
}

} // namespace ckesim::eval

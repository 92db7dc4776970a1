/**
 * @file
 * Reproduces Figure 14: scalability to 3-kernel concurrent execution
 * on top of Warped-Slicer — Weighted Speedup and normalized ANTT for
 * the four classes C+C+C, C+C+M, C+M+M, M+M+M.
 *
 * Paper headline: WS-QBMI and WS-DMIL improve WS by 3.2% and 19.4%
 * and ANTT by 58.3% and 68.7% over WS.
 */

#include "experiments.hpp"

#include <algorithm>
#include <map>

#include "metrics/experiment.hpp"

namespace ckesim::eval {
namespace {

const NamedScheme kSchemes[] = {NamedScheme::WS, NamedScheme::WS_QBMI,
                                NamedScheme::WS_DMIL};

std::string
tripleClass(const Workload &w)
{
    int m = 0;
    for (const KernelProfile *k : w.kernels)
        m += k->isMemoryIntensive() ? 1 : 0;
    switch (m) {
      case 0:
        return "C+C+C";
      case 1:
        return "C+C+M";
      case 2:
        return "C+M+M";
      default:
        return "M+M+M";
    }
}

} // namespace

void
runFigure14()
{
    SweepEngine &engine = benchEngine();
    const GpuConfig cfg = benchConfig();
    const Cycle cycles = benchCycles();

    const std::vector<Workload> triples = representativeTriples();
    std::vector<SimJob> jobs;
    for (const Workload &w : triples)
        for (NamedScheme s : kSchemes)
            jobs.push_back(SimJob::concurrent(cfg, cycles, w, s));
    const std::vector<SimResult> results = engine.sweep(jobs);

    std::map<NamedScheme, std::map<std::string, std::vector<double>>>
        ws, antt_v;
    std::size_t idx = 0;
    for (const Workload &w : triples) {
        const std::string cls = tripleClass(w);
        for (NamedScheme s : kSchemes) {
            const ConcurrentResult &r = *results[idx++].concurrent;
            ws[s][cls].push_back(std::max(r.weighted_speedup, 1e-9));
            antt_v[s][cls].push_back(std::max(r.antt_value, 1e-9));
        }
    }

    const std::vector<std::string> classes = {"C+C+C", "C+C+M",
                                              "C+M+M", "M+M+M"};

    printHeader("Figure 14(a): 3-kernel Weighted Speedup");
    std::printf("%-8s", "class");
    for (NamedScheme s : kSchemes)
        std::printf(" %10s", schemeName(s).c_str());
    std::printf("\n");
    for (const std::string &cls : classes) {
        std::printf("%-8s", cls.c_str());
        for (NamedScheme s : kSchemes)
            std::printf(" %10.3f", geomean(ws[s][cls]));
        std::printf("\n");
    }

    printHeader("Figure 14(b): 3-kernel ANTT normalized to WS "
                "(lower is better)");
    std::printf("%-8s", "class");
    for (NamedScheme s : kSchemes)
        std::printf(" %10s", schemeName(s).c_str());
    std::printf("\n");
    std::vector<double> all_ws[3], all_antt[3];
    for (const std::string &cls : classes) {
        std::printf("%-8s", cls.c_str());
        const double base = geomean(antt_v[NamedScheme::WS][cls]);
        int i = 0;
        for (NamedScheme s : kSchemes) {
            std::printf(" %10.3f",
                        base > 0 ? geomean(antt_v[s][cls]) / base
                                 : 0.0);
            for (double v : ws[s][cls])
                all_ws[i].push_back(v);
            for (double v : antt_v[s][cls])
                all_antt[i].push_back(v);
            ++i;
        }
        std::printf("\n");
    }

    std::printf("\nGmean WS: %.3f (WS) %.3f (QBMI) %.3f (DMIL); "
                "paper improvements: +3.2%% QBMI, +19.4%% DMIL\n",
                geomean(all_ws[0]), geomean(all_ws[1]),
                geomean(all_ws[2]));
}

} // namespace ckesim::eval

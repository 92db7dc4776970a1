/**
 * @file
 * Reproduces the Section 4.3 sensitivity studies: QBMI/DMIL gains
 * over WS with (a) larger L1 D-caches (24KB baseline vs 48KB and
 * 96KB) and (b) the LRR warp scheduler instead of GTO.
 *
 * Paper headline: on 48KB (96KB) L1D, WS-QBMI gains 2.1% (1.5%) and
 * WS-DMIL 18.5% (3.5%) — gains shrink as capacity removes the
 * contention; under LRR, QBMI +3.2% and DMIL +25.8% — the schemes do
 * not depend on GTO.
 */

#include "experiments.hpp"

#include <map>

#include "metrics/experiment.hpp"

namespace ckesim::eval {
namespace {

const NamedScheme kSchemes[] = {NamedScheme::WS, NamedScheme::WS_QBMI,
                                NamedScheme::WS_DMIL};

void
printConfigRow(const std::string &label, const Workload *pairs,
               std::size_t num_pairs, const SimResult *results)
{
    std::map<NamedScheme, ClassAggregate> ws, antt_v;
    std::size_t idx = 0;
    for (std::size_t p = 0; p < num_pairs; ++p) {
        for (NamedScheme s : kSchemes) {
            const ConcurrentResult &r = *results[idx++].concurrent;
            ws[s].add(pairs[p].cls(), r.weighted_speedup);
            antt_v[s].add(pairs[p].cls(), r.antt_value);
        }
    }
    const double base = ws[NamedScheme::WS].geomeanAll();
    const double qbmi = ws[NamedScheme::WS_QBMI].geomeanAll();
    const double dmil = ws[NamedScheme::WS_DMIL].geomeanAll();
    const double base_antt = antt_v[NamedScheme::WS].geomeanAll();
    std::printf("%-14s %8.3f %8.3f (%+5.1f%%) %8.3f (%+5.1f%%)   "
                "ANTT: %+5.1f%% / %+5.1f%%\n",
                label.c_str(), base, qbmi,
                100.0 * (qbmi / base - 1.0), dmil,
                100.0 * (dmil / base - 1.0),
                100.0 * (1.0 - antt_v[NamedScheme::WS_QBMI]
                                   .geomeanAll() /
                                   base_antt),
                100.0 * (1.0 - antt_v[NamedScheme::WS_DMIL]
                                   .geomeanAll() /
                                   base_antt));
}

} // namespace

void
runSensitivity()
{
    SweepEngine &engine = benchEngine();
    const Cycle cycles = benchCycles();

    std::vector<std::pair<std::string, GpuConfig>> configs;
    configs.emplace_back("L1D-24KB", benchConfig());
    {
        GpuConfig cfg = benchConfig();
        cfg.l1d.size_bytes = 48 * 1024;
        configs.emplace_back("L1D-48KB", cfg);
    }
    {
        GpuConfig cfg = benchConfig();
        cfg.l1d.size_bytes = 96 * 1024;
        configs.emplace_back("L1D-96KB", cfg);
    }
    {
        GpuConfig cfg = benchConfig();
        cfg.sm.sched_policy = SchedPolicy::LRR;
        configs.emplace_back("LRR-sched", cfg);
    }

    // All four configurations fan out as one sweep; isolated
    // baselines are memoized per configuration.
    const std::vector<Workload> pairs = benchPairs();
    std::vector<SimJob> jobs;
    for (const auto &[label, cfg] : configs)
        for (const Workload &w : pairs)
            for (NamedScheme s : kSchemes)
                jobs.push_back(SimJob::concurrent(cfg, cycles, w, s));
    const std::vector<SimResult> results = engine.sweep(jobs);

    printHeader("Section 4.3: sensitivity — Weighted Speedup "
                "geomeans (WS / WS-QBMI / WS-DMIL)");
    std::printf("%-14s %8s %8s %10s %8s %10s\n", "config", "WS",
                "QBMI", "gain", "DMIL", "gain");
    const std::size_t per_config =
        pairs.size() * std::size(kSchemes);
    for (std::size_t c = 0; c < configs.size(); ++c)
        printConfigRow(configs[c].first, pairs.data(), pairs.size(),
                       results.data() + c * per_config);

    std::printf("\npaper: gains persist but shrink with larger L1D "
                "(DMIL +24.6%% at 24KB -> +18.5%% at 48KB -> +3.5%% "
                "at 96KB); under LRR, QBMI +3.2%% / DMIL +25.8%%\n");
}

} // namespace ckesim::eval

/**
 * @file
 * Example: co-run pairing advisor.
 *
 * Usage: pairing_advisor [kernel] [cycles]
 *
 * Given one kernel, evaluates co-running it with every other
 * benchmark kernel under the best-practice scheme stack
 * (Warped-Slicer partition + DMIL) and ranks the partners by
 * Weighted Speedup — the "which kernels should share an SM?"
 * question that motivates intra-SM CKE (Section 1: kernels with
 * complementary characteristics gain the most). All twelve candidate
 * pairings run as one parallel sweep; the anchor kernel's isolated
 * baseline is simulated once and shared by every pairing.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "kernels/workload.hpp"
#include "metrics/experiment.hpp"
#include "metrics/sweep_engine.hpp"
#include "sim/check.hpp"

using namespace ckesim;

namespace {

int
run(int argc, char **argv)
{
    const std::string base = argc > 1 ? argv[1] : "bp";
    const Cycle cycles{argc > 2 ? parseCount("cycles", argv[2]) : 40000};

    GpuConfig cfg; // the paper's Table 1 machine
    SweepEngine engine(jobsFromEnv());
    const KernelProfile &anchor = findProfile(base);

    std::vector<std::string> partners;
    std::vector<std::string> classes;
    std::vector<SimJob> jobs;
    for (const KernelProfile &p : benchmarkSuite()) {
        if (p.name == anchor.name)
            continue;
        Workload w;
        w.kernels = {&anchor, &p};
        partners.push_back(p.name);
        classes.push_back(workloadClassName(w.cls()));
        jobs.push_back(
            SimJob::concurrent(cfg, cycles, w, NamedScheme::WS_DMIL));
    }
    const std::vector<SimResult> results = engine.sweep(jobs);

    struct Entry
    {
        std::string partner;
        std::string cls;
        std::shared_ptr<const ConcurrentResult> res;
    };
    std::vector<Entry> entries;
    for (std::size_t i = 0; i < partners.size(); ++i)
        entries.push_back(
            Entry{partners[i], classes[i], results[i].concurrent});
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.res->weighted_speedup >
                         b.res->weighted_speedup;
              });

    std::printf("co-run partners for '%s' under WS-DMIL, best "
                "first (%llu cycles, %d SMs):\n\n",
                anchor.name.c_str(),
                static_cast<unsigned long long>(cycles.get()),
                cfg.num_sms);
    std::printf("%-8s %-5s %8s %8s %8s   %s\n", "partner", "class",
                "WS", "ANTT", "fair", "TB partition");
    for (const Entry &e : entries) {
        std::printf("%-8s %-5s %8.3f %8.3f %8.3f   (",
                    e.partner.c_str(), e.cls.c_str(),
                    e.res->weighted_speedup, e.res->antt_value,
                    e.res->fairness);
        for (std::size_t i = 0; i < e.res->partition.size(); ++i)
            std::printf("%s%d", i ? "," : "", e.res->partition[i]);
        std::printf(")\n");
    }
    std::printf("\nrule of thumb from the paper: complementary "
                "(C+M) pairings share best once memory pipeline "
                "stalls are controlled.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const SimError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
}

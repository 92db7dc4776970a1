/**
 * @file
 * Reproduces Figure 2: computing-resource utilization (ALU / SFU) and
 * the percentage of LSU stall cycles for every benchmark, arranged in
 * decreasing order of ALU utilization. The paper's signature: an
 * inverse relationship between compute utilization and LSU stalls,
 * with the >20%-stall kernels forming the memory-intensive class.
 */

#include "experiments.hpp"

#include <algorithm>

#include "kernels/profile.hpp"
#include "metrics/experiment.hpp"

namespace ckesim::eval {

void
runFigure2()
{
    SweepEngine &engine = benchEngine();
    const GpuConfig cfg = benchConfig();
    const Cycle cycles = benchCycles();

    // One isolated job per benchmark, fanned out across the engine.
    std::vector<SimJob> jobs;
    for (const KernelProfile &p : benchmarkSuite())
        jobs.push_back(SimJob::isolated(cfg, cycles, p));
    const std::vector<SimResult> results = engine.sweep(jobs);

    struct Row
    {
        std::string name;
        double alu, sfu, lsu_stall;
        bool memory;
    };
    std::vector<Row> rows;
    std::size_t idx = 0;
    for (const KernelProfile &p : benchmarkSuite()) {
        const IsolatedResult &res = *results[idx++].isolated;
        const SmStats &sm = res.sm_stats;
        const double slots =
            static_cast<double>(cfg.sm.num_schedulers) * sm.cycles;
        Row r;
        r.name = p.name;
        r.alu = sm.alu_issue_slots / slots;
        r.sfu = sm.sfu_issue_slots / slots;
        r.lsu_stall = sm.lsuStallFraction();
        r.memory = p.isMemoryIntensive();
        rows.push_back(r);
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) { return a.alu > b.alu; });

    printHeader("Figure 2: computing resource utilization and LSU "
                "stalls (sorted by ALU utilization)");
    std::printf("%-5s %10s %10s %10s %6s\n", "bench", "ALU_util",
                "SFU_util", "LSU_stall", "class");
    bool inverse_holds = true;
    double mean_c_stall = 0.0, mean_m_stall = 0.0;
    int nc = 0, nm = 0;
    for (const Row &r : rows) {
        std::printf("%-5s %10.3f %10.3f %10.3f %6s\n", r.name.c_str(),
                    r.alu, r.sfu, r.lsu_stall, r.memory ? "M" : "C");
        if (r.memory) {
            mean_m_stall += r.lsu_stall;
            ++nm;
        } else {
            mean_c_stall += r.lsu_stall;
            ++nc;
        }
    }
    mean_c_stall /= nc;
    mean_m_stall /= nm;
    inverse_holds = mean_m_stall > mean_c_stall;

    std::printf("\nmean LSU stall: C kernels %.3f, M kernels %.3f "
                "(paper: C < 20%% < M)\n",
                mean_c_stall, mean_m_stall);
    std::printf("inverse utilization/stall relationship: %s\n",
                inverse_holds ? "yes" : "NO");
}

} // namespace ckesim::eval

/**
 * @file
 * Example: deep-dive inspection of one kernel's isolated execution.
 *
 * Usage: inspect_kernel [kernel-name] [cycles] [num_sms] [mil-limit]
 *
 * The optional fourth argument applies a static in-flight memory
 * instruction limit (SMIL) to the kernel, showing how throttling
 * affects its own L1D efficiency.
 *
 * Prints the microarchitectural signals the paper's mechanisms react
 * to: IPC, instruction mix, L1D behaviour with the reservation-failure
 * breakdown (line / MSHR / miss-queue), LSU stall fraction, compute
 * utilization, L2 miss rate and DRAM row-buffer locality — all read
 * off a SimJob result, including the memory-side summary the engine
 * attaches to every run.
 */

#include <cstdio>
#include <string>

#include "kernels/profile.hpp"
#include "kernels/workload.hpp"
#include "metrics/experiment.hpp"
#include "metrics/sweep_engine.hpp"
#include "sim/check.hpp"

using namespace ckesim;

namespace {

int
run(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "bp";
    const Cycle cycles{argc > 2 ? parseCount("cycles", argv[2]) : 60000};
    const int num_sms = argc > 3 ? parseCount("num_sms", argv[3]) : 8;

    GpuConfig cfg;
    cfg.num_sms = num_sms;
    cfg.dram.num_channels = num_sms;

    const KernelProfile &prof = findProfile(name);
    SweepEngine engine(jobsFromEnv());

    double ipc = 0.0;
    KernelStats k;
    SmStats s;
    MemSideStats mem;
    if (argc > 4) {
        // Throttled variant: a single-kernel workload under Leftover
        // with a static in-flight memory instruction limit.
        Workload wl;
        wl.kernels = {&prof};
        SchemeSpec spec = makeScheme(PartitionScheme::Leftover,
                                     BmiMode::None, MilMode::Static);
        spec.smil_limits[0] = parseCount("mil-limit", argv[4]);
        const ConcurrentResult &r =
            *engine.concurrent(cfg, cycles, wl, spec);
        ipc = r.ipc[0];
        k = r.stats[0];
        s = r.sm_stats;
        mem = r.mem;
    } else {
        const IsolatedResult &r =
            *engine.isolated(cfg, cycles, prof);
        ipc = r.ipc;
        k = r.stats;
        s = r.sm_stats;
        mem = r.mem;
    }

    std::printf("kernel %s: %d TBs/SM, %d warps/TB, %d regs/thread, "
                "%dB smem/TB\n",
                prof.name.c_str(), prof.maxTbsPerSm(cfg.sm),
                prof.warpsPerTb(cfg.sm.simd_width),
                prof.regs_per_thread, prof.smem_per_tb);
    std::printf("cycles %llu  sms %d\n",
                static_cast<unsigned long long>(cycles.get()), num_sms);
    std::printf("IPC (gpu-wide)        %8.3f\n", ipc);
    std::printf("instr mix: alu %llu sfu %llu smem %llu mem %llu\n",
                (unsigned long long)k.alu_instructions,
                (unsigned long long)k.sfu_instructions,
                (unsigned long long)k.smem_instructions,
                (unsigned long long)k.mem_instructions);
    std::printf("Cinst/Minst %.2f  Req/Minst %.2f\n",
                k.cinstPerMinst(), k.reqPerMinst());
    std::printf("L1D: accesses %llu hits %llu miss_rate %.3f\n",
                (unsigned long long)k.l1d_accesses,
                (unsigned long long)k.l1d_hits, k.l1dMissRate());
    std::printf("L1D rsfail/access %.3f  (line %llu, mshr %llu, "
                "missq %llu)\n",
                k.l1dRsFailRate(),
                (unsigned long long)k.l1d_rsfail_line,
                (unsigned long long)k.l1d_rsfail_mshr,
                (unsigned long long)k.l1d_rsfail_missq);
    std::printf("LSU stall fraction    %8.3f\n", s.lsuStallFraction());
    std::printf("ALU util %.3f  SFU util %.3f\n",
                static_cast<double>(s.alu_issue_slots) /
                    (cfg.sm.num_schedulers * s.cycles),
                static_cast<double>(s.sfu_issue_slots) /
                    (cfg.sm.num_schedulers * s.cycles));
    std::printf("L2 miss rate          %8.3f\n", mem.l2_miss_rate);
    std::printf("DRAM row-hit rate     %8.3f\n",
                mem.dram_row_hit_rate);
    std::printf("TBs completed         %8llu\n",
                (unsigned long long)k.tbs_completed);
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

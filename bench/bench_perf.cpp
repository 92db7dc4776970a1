/**
 * @file
 * Execution-layer throughput baselines, emitted as BENCH_perf.json
 * (stable key order) so successive PRs can diff orchestration
 * overhead and simulator speed.
 *
 * Two sections:
 *
 *  - campaign_throughput: jobs/sec of the smoke campaign run (a)
 *    in-process through a SweepEngine and (b) through the
 *    multi-process campaign orchestrator at 1, 2 and 4 workers —
 *    measured at THREE scale points. At the small point (2000 cycles
 *    per job) fork+handshake overhead dominates and the fleet loses
 *    to in-process; at the large point (20000 cycles) per-job work
 *    amortizes dispatch; the wide point replays the smoke campaign
 *    six times at staggered cycle counts (48 jobs, defeating the
 *    content-hash dedup) so jobs >> workers and per-job dispatch
 *    overhead is measured in steady state rather than ramp-up.
 *    Recording all three keeps the overhead floor AND the scaling
 *    behaviour under regression watch. NOTE: worker scaling needs
 *    cores to scale onto — on the 1-core CI host every multi-worker
 *    row is an overhead measurement, not a speedup measurement
 *    (host_cores is recorded so readers can tell which).
 *
 *  - strict_busy: the perf-regression gate for the stepping loop
 *    itself. On a busy machine (sms=4, compute-bound bp+hs co-run)
 *    cycles/sec is a direct measure of per-cycle cost. Each scheme
 *    runs --busy-repeats times and reports the median (single runs
 *    on a shared host are ±20-40% noisy); with --prof the first run
 *    of each scheme attaches the cycle-cost profiler
 *    (sim/profiler.hpp) and reports the component breakdown.
 *    tools/perf_diff.py pairs artifacts of two builds run
 *    alternately on one host and gates the median ratio.
 *
 * Usage: bench_perf [--out BENCH_perf.json] [--cycles N]
 *                   [--cycles-large N] [--busy-cycles N]
 *                   [--busy-repeats R] [--prof]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign_engine.hpp"
#include "campaign/campaign_spec.hpp"
#include "gpu.hpp"
#include "kernels/workload.hpp"
#include "metrics/sweep_engine.hpp"
#include "sim/check.hpp"
#include "sim/profiler.hpp"

namespace {

using namespace ckesim;
using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

// ---- campaign throughput ----------------------------------------------

struct ModeResult
{
    std::string mode;
    int workers = 1;
    double wall_ms = 0.0;
    double jobs_per_sec = 0.0;
    bool all_completed = false;
};

ModeResult
runInProcess(const std::vector<SimJob> &jobs)
{
    ModeResult r;
    r.mode = "in-process";
    r.workers = 1;
    SweepEngine engine(1); // fresh engine: empty memo cache
    const auto start = Clock::now();
    const std::vector<SimResult> results = engine.sweep(jobs);
    r.wall_ms = msSince(start);
    r.all_completed = results.size() == jobs.size();
    r.jobs_per_sec = static_cast<double>(jobs.size()) * 1000.0 /
                     (r.wall_ms > 0.0 ? r.wall_ms : 1.0);
    return r;
}

ModeResult
runCampaign(const std::vector<SimJob> &jobs, int workers)
{
    ModeResult r;
    r.mode = "campaign";
    r.workers = workers;
    CampaignOptions opts;
    opts.workers = workers;
    CampaignEngine engine(opts);
    const auto start = Clock::now();
    const CampaignOutcome outcome = engine.run(jobs);
    r.wall_ms = msSince(start);
    r.all_completed = outcome.allCompleted();
    r.jobs_per_sec = static_cast<double>(jobs.size()) * 1000.0 /
                     (r.wall_ms > 0.0 ? r.wall_ms : 1.0);
    return r;
}

struct ScalePoint
{
    std::string point;
    long long cycles = 0;
    std::size_t jobs = 0;
    std::vector<ModeResult> modes;
};

ScalePoint
measureJobs(const std::string &point, long long cycles,
            const std::vector<SimJob> &jobs)
{
    ScalePoint sp;
    sp.point = point;
    sp.cycles = cycles;
    sp.jobs = jobs.size();
    sp.modes.push_back(runInProcess(jobs));
    for (const int workers : {1, 2, 4})
        sp.modes.push_back(runCampaign(jobs, workers));
    return sp;
}

ScalePoint
measurePoint(const std::string &point, long long cycles)
{
    return measureJobs(point, cycles,
                       buildNamedCampaign(
                           "smoke",
                           Cycle{static_cast<std::uint64_t>(cycles)}));
}

/** jobs >> workers: six smoke replicas at staggered cycle counts so
 *  the campaign's content-hash memoization cannot collapse them. */
ScalePoint
measureWidePoint(long long cycles)
{
    std::vector<SimJob> jobs;
    for (int i = 0; i < 6; ++i) {
        const std::vector<SimJob> rep = buildNamedCampaign(
            "smoke", Cycle{static_cast<std::uint64_t>(cycles + i)});
        jobs.insert(jobs.end(), rep.begin(), rep.end());
    }
    return measureJobs("wide", cycles, jobs);
}

// ---- scheme list for strict_busy --------------------------------------

struct SchemeCase
{
    std::string name;
    SchemeSpec spec;
};

std::vector<SchemeCase>
benchSchemes()
{
    std::vector<SchemeCase> schemes;
    schemes.push_back({"smk", makeScheme(PartitionScheme::SmkDrf,
                                         BmiMode::None,
                                         MilMode::None)});
    {
        SchemeCase s{"ws", makeScheme(PartitionScheme::WarpedSlicer,
                                      BmiMode::None, MilMode::None)};
        s.spec.ws_profile_window = Cycle{5000};
        schemes.push_back(s);
    }
    {
        SchemeCase s{"ws-qbmi-dmil",
                     makeScheme(PartitionScheme::WarpedSlicer,
                                BmiMode::QBMI, MilMode::Dynamic)};
        s.spec.ws_profile_window = Cycle{5000};
        schemes.push_back(s);
    }
    {
        // Tight static SMIL: with one outstanding miss per kernel
        // the SMs spend most cycles waiting on DRAM.
        SchemeCase s{"ws-smil1",
                     makeScheme(PartitionScheme::WarpedSlicer,
                                BmiMode::None, MilMode::Static)};
        s.spec.ws_profile_window = Cycle{5000};
        s.spec.smil_limits[0] = 1;
        s.spec.smil_limits[1] = 1;
        schemes.push_back(s);
    }
    return schemes;
}

// ---- strict busy-machine microbench (perf-regression gate) ------------

struct BusyCase
{
    std::string scheme;
    double wall_ms = 0.0;       ///< median over repeats
    double cps = 0.0;           ///< median strict cycles/sec
    double attributed_pct = 0.0; ///< --prof only (0 = not profiled)
};

std::vector<BusyCase>
runStrictBusy(Cycle cycles, int repeats, bool prof_on)
{
    const GpuConfig cfg = makeSmallConfig(4, 4);
    const Workload wl = makeWorkload({"bp", "hs"});
    std::vector<BusyCase> out;
    for (const SchemeCase &s : benchSchemes()) {
        BusyCase c;
        c.scheme = s.name;
        if (prof_on) {
            // Separate profiled run: scope overhead must not leak
            // into the timed medians below.
            Gpu gpu(cfg, wl, s.spec);
            Profiler prof;
            prof.enable();
            gpu.setProfiler(&prof);
            gpu.run(cycles);
            c.attributed_pct = prof.attributedFraction() * 100.0;
            std::fprintf(stderr, "strict_busy %s\n", s.name.c_str());
            std::ostringstream os;
            prof.report(os);
            std::fputs(os.str().c_str(), stderr);
        }
        std::vector<double> walls;
        for (int r = 0; r < repeats; ++r) {
            Gpu gpu(cfg, wl, s.spec);
            const auto start = Clock::now();
            gpu.run(cycles);
            walls.push_back(msSince(start));
        }
        std::sort(walls.begin(), walls.end());
        c.wall_ms = walls[walls.size() / 2];
        c.cps = static_cast<double>(cycles.get()) * 1000.0 /
                (c.wall_ms > 0.0 ? c.wall_ms : 1.0);
        out.push_back(c);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_perf.json";
    bool prof_on = false;
    long long cycles = 2000;
    long long cycles_large = 20000;
    long long busy_cycles = 40000;
    long long busy_repeats = 3;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        long long *slot = nullptr;
        if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
            continue;
        } else if (arg == "--prof") {
            prof_on = true;
            continue;
        } else if (arg == "--cycles" && i + 1 < argc) {
            slot = &cycles;
        } else if (arg == "--cycles-large" && i + 1 < argc) {
            slot = &cycles_large;
        } else if (arg == "--busy-cycles" && i + 1 < argc) {
            slot = &busy_cycles;
        } else if (arg == "--busy-repeats" && i + 1 < argc) {
            slot = &busy_repeats;
        } else {
            std::fprintf(stderr,
                         "usage: bench_perf [--out FILE] "
                         "[--cycles N] [--cycles-large N] "
                         "[--busy-cycles N] [--busy-repeats R] "
                         "[--prof]\n");
            return 2;
        }
        *slot = std::strtoll(argv[++i], nullptr, 10);
        if (*slot <= 0) {
            std::fprintf(stderr, "bad %s\n", arg.c_str());
            return 2;
        }
    }

    try {
        std::vector<ScalePoint> points;
        points.push_back(measurePoint("small", cycles));
        points.push_back(measurePoint("large", cycles_large));
        points.push_back(measureWidePoint(cycles_large));

        const std::vector<BusyCase> busy = runStrictBusy(
            Cycle{static_cast<std::uint64_t>(busy_cycles)},
            static_cast<int>(busy_repeats), prof_on);

        std::FILE *f = std::fopen(out_path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         out_path.c_str());
            return 2;
        }
        // Worker scaling only shows up with cores to scale onto;
        // record the host so a 1-core CI runner's numbers are read
        // as overhead measurements, not scaling regressions.
        std::fprintf(f,
                     "{\n"
                     "  \"bench\": \"perf\",\n"
                     "  \"host_cores\": %u,\n"
                     "  \"campaign_throughput\": {\n"
                     "    \"campaign\": \"smoke\",\n"
                     "    \"points\": [\n",
                     std::thread::hardware_concurrency());
        for (std::size_t p = 0; p < points.size(); ++p) {
            const ScalePoint &sp = points[p];
            std::fprintf(f,
                         "      {\"point\": \"%s\", \"cycles\": "
                         "%lld, \"jobs\": %zu, \"modes\": [\n",
                         sp.point.c_str(), sp.cycles, sp.jobs);
            for (std::size_t i = 0; i < sp.modes.size(); ++i) {
                const ModeResult &m = sp.modes[i];
                std::fprintf(
                    f,
                    "        {\"mode\": \"%s\", \"workers\": %d, "
                    "\"wall_ms\": %.3f, \"jobs_per_sec\": %.3f, "
                    "\"all_completed\": %s}%s\n",
                    m.mode.c_str(), m.workers, m.wall_ms,
                    m.jobs_per_sec,
                    m.all_completed ? "true" : "false",
                    i + 1 < sp.modes.size() ? "," : "");
            }
            std::fprintf(f, "      ]}%s\n",
                         p + 1 < points.size() ? "," : "");
        }
        std::fprintf(f,
                     "    ]\n"
                     "  },\n"
                     "  \"strict_busy\": {\n"
                     "    \"cycles\": %lld,\n"
                     "    \"sms\": 4,\n"
                     "    \"workload\": \"bp+hs\",\n"
                     "    \"repeats\": %lld,\n"
                     "    \"cases\": [\n",
                     busy_cycles, busy_repeats);
        for (std::size_t i = 0; i < busy.size(); ++i) {
            const BusyCase &c = busy[i];
            std::fprintf(f,
                         "      {\"scheme\": \"%s\", "
                         "\"wall_ms\": %.3f, "
                         "\"cycles_per_sec\": %.0f",
                         c.scheme.c_str(), c.wall_ms, c.cps);
            if (c.attributed_pct > 0.0)
                std::fprintf(f, ", \"prof_attributed_pct\": %.1f",
                             c.attributed_pct);
            std::fprintf(f, "}%s\n",
                         i + 1 < busy.size() ? "," : "");
        }
        std::fprintf(f,
                     "    ]\n"
                     "  }\n"
                     "}\n");
        std::fclose(f);

        for (const ScalePoint &sp : points)
            for (const ModeResult &m : sp.modes)
                std::printf("%-6s %-10s workers=%d  %8.1f ms  "
                            "%7.2f jobs/sec%s\n",
                            sp.point.c_str(), m.mode.c_str(),
                            m.workers, m.wall_ms, m.jobs_per_sec,
                            m.all_completed ? "" : "  INCOMPLETE");
        for (const BusyCase &c : busy) {
            std::printf("busy sms=4 bp+hs %-13s strict %8.0f cyc/s",
                        c.scheme.c_str(), c.cps);
            if (c.attributed_pct > 0.0)
                std::printf("  prof %.1f%%", c.attributed_pct);
            std::printf("\n");
        }

        int rc = 0;
        for (const ScalePoint &sp : points)
            for (const ModeResult &m : sp.modes)
                if (!m.all_completed)
                    rc = 1;
        return rc;
    } catch (const SimError &e) {
        std::fprintf(stderr, "bench_perf: [%s] %s\n",
                     e.kind().c_str(), e.what());
        return 2;
    }
}

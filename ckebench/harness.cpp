/**
 * @file
 * ckebench_harness: the in-process half of the ckesim benchmark. It
 * times calls into the simulator's public API from outside — Gpu
 * construction, Gpu::run, Gpu::audit, SweepEngine::sweep,
 * runCampaignClient — and the campaign daemon as a subprocess, and
 * prints one JSON object on its last stdout line. ckebench/run.py
 * builds it, pins the environment, checks recorded fingerprints and
 * turns that object into the benchmark's result line.
 *
 * Usage:
 *   ckebench_harness sim --pairs pf+bp,bp+hs --seed N --seconds S
 *                    --cycles C [--trace]
 *   ckebench_harness service --daemon PATH --seed N --seconds S
 *                    --cycles C [--trace]
 *   ckebench_harness probe [--threads N]
 *
 * sim: single-threaded strict Gpu::run on the paper's Table 1 machine
 * (GpuConfig{}, seed = --seed) for every pair under WS, WS-QBMI-DMIL
 * and SMK, in passes until --seconds elapse, with a reference probe
 * after every pass. Every run is audited and fingerprinted
 * (GpuSnapshot::fingerprint); a case whose repeats disagree counts each
 * repeat as failed.
 *
 * service: spawns `ckesim-campaignd --serve` with 2 workers (cwd = the
 * harness cwd, which holds the socket and journal), then 2 closed-loop
 * client threads submit "smoke" campaigns at distinct cycle counts, in
 * rounds with a reference probe after each; one submission in four
 * resends an earlier ref. After the timed phase the daemon is drained,
 * a second daemon resumed on the same journal serves up to 16 earlier
 * refs from its shards, and every submitted campaign is recomputed
 * in-process through SweepEngine::sweep as ground truth.
 *
 * probe: one run of the reference probe (see RefProbe) on each of N
 * threads at once, for timings taken outside the harness.
 *
 * End-to-end timings are scaled to a reference host speed by RefProbe.
 * --trace swaps the end-to-end metrics for per-layer ones: it attaches
 * the cycle-cost Profiler (sim) and reports counts, per-call times and
 * the tracing overhead. No end-to-end number comes from a traced pass.
 */

#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign_engine.hpp"
#include "campaign/campaign_spec.hpp"
#include "campaign/client.hpp"
#include "campaign/wire.hpp"
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

/** Nearest-rank percentile (0 for an empty sample). */
double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double rank = std::ceil(p * static_cast<double>(xs.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return xs[std::min(idx, xs.size() - 1)];
}

double
median(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    std::vector<double> s = xs;
    std::sort(s.begin(), s.end());
    const std::size_t n = s.size();
    return n % 2 == 1 ? s[n / 2] : (s[n / 2 - 1] + s[n / 2]) / 2.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Host-speed reference. On a shared host, neighbours slow the simulator
 * by up to 1.9x for seconds to minutes at a time, far longer than any
 * run can wait out. This fixed workload has a similar memory profile
 * (hash-table traffic over 16 MB, binary searches over a sorted 8 MB
 * array), allocates nothing after construction and never calls the
 * simulator, so it slows down with the host but not with a change to
 * ckesim. Timings are reported at the reference speed:
 * measured x kRefProbeMs / probe, where probe is the mean of the probes
 * taken just before and just after the timed work.
 */
class RefProbe
{
  public:
    /** Probe time of the reference host speed every timing is scaled to. */
    static constexpr double kRefProbeMs = 250.0;

    RefProbe() : slots_(kSlots), keys_(kKeys) {}

    /** One run of the fixed workload; wall milliseconds. */
    double
    run()
    {
        const auto t = Clock::now();
        std::uint64_t x = 0x243f6a8885a308d3ull, acc = 0;
        for (std::uint64_t &k : keys_)
            k = next(x);
        std::sort(keys_.begin(), keys_.end());
        std::fill(slots_.begin(), slots_.end(), Slot{});
        for (std::uint64_t i = 0; i < kOps; ++i) {
            const std::uint64_t r = next(x);
            const std::uint64_t key = (r >> 8) % kLiveKeys + 1;
            switch (r & 3) {
              case 0:
                slot(key).value += i;
                break;
              case 1:
                acc += slot(key).value;
                break;
              default:
                acc += *std::lower_bound(keys_.begin(), keys_.end() - 1, r);
                break;
            }
        }
        sink_ = acc;
        return msSince(t);
    }

    /**
     * Wall milliseconds of one run on each of @p probes at once, one
     * thread each: the reference for work spread over several cores.
     */
    static double
    runTogether(std::vector<RefProbe> &probes)
    {
        const auto t = Clock::now();
        std::vector<std::thread> threads;
        for (RefProbe &p : probes)
            threads.emplace_back([&p] { p.run(); });
        for (std::thread &th : threads)
            th.join();
        return msSince(t);
    }

    /** Factor that scales a timing between probes @p before and @p after. */
    static double
    scale(double before, double after)
    {
        return kRefProbeMs / ((before + after) / 2.0);
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        std::uint64_t value = 0;
    };
    static constexpr std::size_t kSlots = std::size_t{1} << 20;
    static constexpr std::size_t kKeys = std::size_t{1} << 20;
    static constexpr std::uint64_t kLiveKeys = 200000;
    static constexpr std::uint64_t kOps = 600000;

    static std::uint64_t
    next(std::uint64_t &x) // splitmix64
    {
        x += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    Slot &
    slot(std::uint64_t key)
    {
        std::size_t i = static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ull) >> 44);
        while (slots_[i].key != 0 && slots_[i].key != key)
            i = (i + 1) & (kSlots - 1);
        slots_[i].key = key;
        return slots_[i];
    }

    std::vector<Slot> slots_;
    std::vector<std::uint64_t> keys_;
    volatile std::uint64_t sink_ = 0;
};

/** Peak resident set in MB of this process. */
double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** The result object: metrics keep insertion order for readability. */
class Result
{
  public:
    void
    metric(const std::string &name, double value, const char *unit)
    {
        metrics_.push_back({name, value, unit});
    }
    void fact(const std::string &name, const std::string &json)
    {
        facts_.push_back({name, json});
    }
    void error(const std::string &what) { errors_.push_back(what); }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    print() const
    {
        std::ostringstream os;
        os.precision(10);
        os << "{\"attempted\": " << attempted
           << ", \"failed\": " << failed << ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i)
            os << (i ? ", " : "") << '"' << metrics_[i].name
               << "\": {\"value\": " << metrics_[i].value
               << ", \"unit\": \"" << metrics_[i].unit << "\"}";
        os << "}";
        for (const auto &[name, json] : facts_)
            os << ", \"" << name << "\": " << json;
        os << ", \"errors\": [";
        for (std::size_t i = 0; i < errors_.size(); ++i)
            os << (i ? ", " : "") << '"' << escaped(errors_[i]) << '"';
        os << "]}\n";
        std::fputs(os.str().c_str(), stdout);
        std::fflush(stdout);
    }

  private:
    static std::string
    escaped(const std::string &s)
    {
        std::string out;
        for (const char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += (c == '\n' || c == '\t') ? ' ' : c;
        }
        return out;
    }

    struct Metric
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Metric> metrics_;
    std::vector<std::pair<std::string, std::string>> facts_;
    std::vector<std::string> errors_;
};

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
    return buf;
}

struct Args
{
    std::string mode;
    std::vector<std::string> pairs;
    std::string daemon;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::uint64_t cycles = 20000;
    std::size_t threads = 1; ///< probe: concurrent probe runs
    bool trace = false;
};

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (const char c : s) {
        if (c == sep) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    out.push_back(cur);
    return out;
}

// ---- sim_busy / sim_stall ----------------------------------------------

struct SimCase
{
    std::string name; ///< "pf+bp/ws"
    Workload workload;
    SchemeSpec spec;
};

std::vector<SimCase>
simCases(const std::vector<std::string> &pairs)
{
    struct Scheme
    {
        const char *name;
        PartitionScheme partition;
        BmiMode bmi;
        MilMode mil;
    };
    const Scheme schemes[] = {
        {"ws", PartitionScheme::WarpedSlicer, BmiMode::None,
         MilMode::None},
        {"ws-qbmi-dmil", PartitionScheme::WarpedSlicer, BmiMode::QBMI,
         MilMode::Dynamic},
        {"smk", PartitionScheme::SmkDrf, BmiMode::None, MilMode::None},
    };
    std::vector<SimCase> cases;
    for (const std::string &pair : pairs) {
        const Workload wl = makeWorkload(split(pair, '+'));
        for (const Scheme &s : schemes) {
            SchemeSpec spec = makeScheme(s.partition, s.bmi, s.mil);
            // Short online-profiling window so the measured run is
            // mostly co-execution under the chosen partition.
            spec.ws_profile_window = Cycle{5000};
            cases.push_back({pair + "/" + s.name, wl, spec});
        }
    }
    return cases;
}

/** Exact simulated-state counts summed over a pass. */
struct SimCounts
{
    double sm_cycles = 0; ///< cycles summed over SMs
    double warp_instr = 0;
    double issue_slots = 0;
    double issue_slots_used = 0;
    double lsu_stall = 0;
    double mem_requests = 0;
    double l1d_accesses = 0;
    double l1d_misses = 0;
    double l1d_rsfails = 0;
    double l2_miss_rate_sum = 0;
    double dram_row_hit_sum = 0;
    int runs = 0;

    void
    add(Gpu &gpu)
    {
        const SmStats sm = gpu.smStatsTotal();
        sm_cycles += static_cast<double>(sm.cycles);
        issue_slots += static_cast<double>(sm.cycles) *
                       gpu.config().sm.num_schedulers;
        issue_slots_used += static_cast<double>(sm.issue_slots_used);
        lsu_stall += static_cast<double>(sm.lsu_stall_cycles);
        for (int k = 0; k < gpu.numKernels(); ++k) {
            const KernelStats ks = gpu.kernelStatsTotal(KernelId{k});
            warp_instr += static_cast<double>(ks.issued_instructions);
            mem_requests += static_cast<double>(ks.mem_requests);
            l1d_accesses += static_cast<double>(ks.l1d_accesses);
            l1d_misses += static_cast<double>(ks.l1d_misses);
            l1d_rsfails += static_cast<double>(ks.l1d_rsfails);
        }
        l2_miss_rate_sum += gpu.memsys().l2MissRate();
        const int channels = gpu.config().dram.num_channels;
        double row_hit = 0.0;
        for (int c = 0; c < channels; ++c)
            row_hit += gpu.memsys().channel(c).rowHitRate();
        dram_row_hit_sum += channels > 0 ? row_hit / channels : 0.0;
        ++runs;
    }
};

/** Per-component milliseconds parsed from Profiler::report(). */
std::map<std::string, double>
profileMs(const Profiler &prof)
{
    std::ostringstream os;
    prof.report(os);
    std::istringstream is(os.str());
    std::map<std::string, double> ms;
    std::string line;
    std::getline(is, line); // "profile: wall ..."
    std::getline(is, line); // column header
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string name;
        double v = 0.0;
        if (ls >> name >> v)
            ms[name] = v;
    }
    return ms;
}

struct SimRun
{
    double ctor_ms = 0;
    double run_ms = 0;
    double audit_ms = 0;
    std::uint64_t fingerprint = 0;
    std::uint64_t fast_skipped = 0;
    bool audit_ok = true;
};

SimRun
runCase(const GpuConfig &cfg, const SimCase &c, Cycle cycles,
        Profiler *prof, bool fast, SimCounts *counts, Result &res)
{
    SimRun r;
    auto t = Clock::now();
    Gpu gpu(cfg, c.workload, c.spec);
    r.ctor_ms = msSince(t);
    gpu.setProfiler(prof);
    gpu.setFastForward(fast);
    t = Clock::now();
    gpu.run(cycles);
    r.run_ms = msSince(t);
    gpu.setProfiler(nullptr);
    r.fast_skipped = gpu.fastSkippedCycles();
    r.fingerprint = gpu.snapshot().fingerprint;
    if (counts != nullptr)
        counts->add(gpu);
    t = Clock::now();
    try {
        gpu.audit();
    } catch (const SimError &e) {
        r.audit_ok = false;
        res.error(c.name + ": audit [" + e.kind() + "] " + e.detail());
    }
    r.audit_ms = msSince(t);
    return r;
}

int
runSim(const Args &args)
{
    Result res;
    RefProbe probe;
    std::vector<double> probes{probe.run()};
    GpuConfig cfg;
    cfg.seed = args.seed;
    const std::vector<SimCase> cases = simCases(args.pairs);
    const Cycle cycles{args.cycles};

    // Set-up: construct every Gpu of the workload, five times, each
    // round scaled by the probes around it.
    std::vector<double> setups;
    for (int rep = 0; rep < 5; ++rep) {
        std::vector<std::unique_ptr<Gpu>> gpus;
        const auto t = Clock::now();
        for (const SimCase &c : cases)
            gpus.push_back(std::make_unique<Gpu>(cfg, c.workload, c.spec));
        const double s = msSince(t) / 1000.0;
        gpus.clear();
        probes.push_back(probe.run());
        setups.push_back(
            s * RefProbe::scale(probes[probes.size() - 2], probes.back()));
    }

    std::vector<std::vector<std::uint64_t>> fps(cases.size());
    // Per-case scaled run times (untraced runs only).
    std::vector<std::vector<double>> case_ms(cases.size());
    std::vector<double> run_ms, ctor_ms, audit_ms, pass_s, scaled_pass_s;
    double traced_ms = 0.0; ///< profiled twins of every untraced run
    std::map<std::string, double> comp_ms;
    double attributed = 0.0;
    SimCounts counts;
    std::uint64_t fast_skipped = 0, fast_cycles = 0;

    const auto start = Clock::now();
    do {
        double pass = 0.0;
        std::vector<double> pass_runs;
        for (std::size_t i = 0; i < cases.size(); ++i) {
            const SimRun r =
                runCase(cfg, cases[i], cycles, nullptr, false,
                        args.trace && pass_s.empty() ? &counts : nullptr,
                        res);
            ++res.attempted;
            if (!r.audit_ok)
                ++res.failed;
            fps[i].push_back(r.fingerprint);
            run_ms.push_back(r.run_ms);
            ctor_ms.push_back(r.ctor_ms);
            audit_ms.push_back(r.audit_ms);
            pass += r.run_ms;
            pass_runs.push_back(r.run_ms);
            if (!args.trace)
                continue;
            // Traced twin of the same run: profiler attached.
            Profiler prof;
            prof.enable();
            const SimRun t = runCase(cfg, cases[i], cycles, &prof,
                                     false, nullptr, res);
            traced_ms += t.run_ms;
            for (const auto &[name, ms] : profileMs(prof))
                comp_ms[name] += ms;
            attributed += prof.attributedFraction() * t.run_ms;
            if (t.fingerprint != r.fingerprint) {
                ++res.failed;
                res.error(cases[i].name +
                          ": profiled run changed the fingerprint");
            }
            if (pass_s.empty()) {
                // Once per case: how much the fast path would skip.
                const SimRun f = runCase(cfg, cases[i], cycles, nullptr,
                                         true, nullptr, res);
                fast_skipped += f.fast_skipped;
                fast_cycles += cycles.get();
                if (f.fingerprint != r.fingerprint) {
                    ++res.failed;
                    res.error(cases[i].name +
                              ": fast path changed the fingerprint");
                }
            }
        }
        probes.push_back(probe.run());
        const double f =
            RefProbe::scale(probes[probes.size() - 2], probes.back());
        pass_s.push_back(pass / 1000.0);
        scaled_pass_s.push_back(pass / 1000.0 * f);
        for (std::size_t i = 0; i < cases.size(); ++i)
            case_ms[i].push_back(pass_runs[i] * f);
    } while (msSince(start) < args.seconds * 1000.0);

    // Determinism: every repeat of a case must agree.
    std::ostringstream fpjson;
    fpjson << "{";
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const bool agree =
            std::all_of(fps[i].begin(), fps[i].end(),
                        [&](std::uint64_t f) { return f == fps[i][0]; });
        if (!agree) {
            res.failed += fps[i].size();
            res.error(cases[i].name + ": repeats disagree");
        }
        fpjson << (i ? ", " : "") << '"' << cases[i].name << "\": {\"fp\": \""
               << (agree ? hex(fps[i][0]) : std::string("mismatch"))
               << "\", \"runs\": " << fps[i].size() << "}";
    }
    fpjson << "}";
    res.fact("cases", fpjson.str());

    const double cyc_per_pass =
        static_cast<double>(cases.size() * args.cycles);
    std::ostringstream raw;
    raw.precision(10);
    raw << "{\"eval_wall_s\": " << median(pass_s)
        << ", \"probe_ms\": " << median(probes) << "}";
    res.fact("raw", raw.str());
    if (!args.trace) {
        // Medians over passes of probe-scaled times; each case's own
        // median run, then the median and p90 over the cases.
        std::vector<double> case_med;
        for (const std::vector<double> &ms : case_ms)
            case_med.push_back(median(ms));
        const double pass_med = median(scaled_pass_s);
        res.metric("eval_wall_s", pass_med, "s");
        res.metric("sim_mcycles_per_s", cyc_per_pass / pass_med / 1e6,
                   "Mcycle/s");
        res.metric("submit_p50_ms", median(case_med), "ms");
        res.metric("submit_p90_ms", percentile(case_med, 0.9), "ms");
        res.metric("setup_s", median(setups), "s");
        res.metric("peak_rss_mb", peakRssMb(), "MB");
        res.print();
        return 0;
    }

    double untraced_ms = 0.0;
    for (const double s : pass_s)
        untraced_ms += s * 1000.0;
    const double traced_cycles =
        cyc_per_pass * static_cast<double>(pass_s.size());
    const char *comps[] = {"sm_issue", "lsu", "l1d", "noc", "l2",
                           "dram", "scheme", "integrity", "runloop"};
    for (const char *comp : comps)
        res.metric(std::string("prof.") + comp + "_ns_per_cycle",
                   ratio(comp_ms[comp] * 1e6, traced_cycles),
                   "ns/cycle");
    res.metric("prof.attributed_pct",
               100.0 * ratio(attributed, traced_ms), "%");
    res.metric("trace.overhead_pct",
               100.0 * (ratio(traced_ms, untraced_ms) - 1.0), "%");
    res.metric("gpu.ctor_ms", median(ctor_ms), "ms");
    res.metric("gpu.run_ms", median(run_ms), "ms");
    res.metric("gpu.audit_ms", median(audit_ms), "ms");
    res.metric("gpu.fast_skip_pct",
               100.0 * ratio(static_cast<double>(fast_skipped),
                             static_cast<double>(fast_cycles)),
               "%");
    res.metric("sm.warp_instr", counts.warp_instr, "count");
    res.metric("sm.issue_slot_util",
               ratio(counts.issue_slots_used, counts.issue_slots),
               "ratio");
    res.metric("sm.lsu_stall_frac",
               ratio(counts.lsu_stall, counts.sm_cycles), "ratio");
    res.metric("mem.requests", counts.mem_requests, "count");
    res.metric("mem.l1d_miss_rate",
               ratio(counts.l1d_misses, counts.l1d_accesses), "ratio");
    res.metric("mem.l1d_rsfail_rate",
               ratio(counts.l1d_rsfails, counts.l1d_accesses), "ratio");
    res.metric("mem.l2_miss_rate",
               ratio(counts.l2_miss_rate_sum, counts.runs), "ratio");
    res.metric("mem.dram_row_hit_rate",
               ratio(counts.dram_row_hit_sum, counts.runs), "ratio");
    // The first untraced pass ran with counts; host cost per unit of
    // simulated work.
    res.metric("host.ns_per_warp_instr",
               ratio(pass_s[0] * 1e9, counts.warp_instr), "ns");
    res.metric("host.ns_per_mem_request",
               ratio(pass_s[0] * 1e9, counts.mem_requests), "ns");
    res.metric("host.ref_probe_ms", median(probes), "ms");
    res.print();
    return 0;
}

// ---- service -------------------------------------------------------------

const char *kSocket = "svc.sock";
const char *kWorkers = "2";
const int kClients = 2;
const char *kJournal = "svc.journal";

int
connectSocket(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** True once the service answers a Ping with a Pong. */
bool
pingOnce()
{
    const int fd = connectSocket(kSocket);
    if (fd < 0)
        return false;
    Frame ping;
    ping.type = FrameType::Ping;
    Frame pong;
    const bool ok = writeFrame(fd, ping) &&
                    readFrameBlocking(fd, pong) == WireStatus::Ok &&
                    pong.type == FrameType::Pong;
    ::close(fd);
    return ok;
}

/** Peak resident set (VmHWM) in MB of process @p pid, 0 if gone. */
double
vmHwmMb(long pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    return 0.0;
}

/** A running ckesim-campaignd --serve child. */
class Daemon
{
  public:
    /** @p resume keeps the journal a previous daemon left behind. */
    Daemon(const Args &args, const std::string &log, bool resume = false)
    {
        ::unlink(kSocket);
        pid_ = ::fork();
        if (pid_ == 0) {
            std::FILE *f = std::freopen(log.c_str(), "w", stderr);
            (void)f;
            ::execl(args.daemon.c_str(), args.daemon.c_str(), "--serve",
                    kSocket, "--workers", kWorkers, "--journal",
                    kJournal, resume ? "--resume" : nullptr,
                    static_cast<char *>(nullptr));
            std::_Exit(127);
        }
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    ~Daemon() { stop(); }

    /** Wait (bounded) for the first Pong; false on timeout/death. */
    bool
    awaitPong()
    {
        const auto start = Clock::now();
        while (msSince(start) < 20000.0) {
            if (pingOnce())
                return true;
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return false;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        return false;
    }

    /**
     * Largest peak resident set in MB of the daemon and its workers so
     * far. Read from /proc rather than getrusage: the daemon is forked
     * from the harness, whose own pages would count until the exec.
     */
    double
    peakRssMb() const
    {
        double mb = vmHwmMb(pid_);
        std::ifstream kids("/proc/" + std::to_string(pid_) + "/task/" +
                           std::to_string(pid_) + "/children");
        long kid = 0;
        while (kids >> kid)
            mb = std::max(mb, vmHwmMb(kid));
        return mb;
    }

    /** SIGTERM drain, then reap (the drain report lands in the log). */
    void
    stop()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGTERM);
            ::waitpid(pid_, nullptr, 0);
            pid_ = -1;
        }
    }

  private:
    pid_t pid_ = -1;
};

/** Add the "key=value" counts of a daemon's drain report to @p kv. */
void
addDrainReport(const std::string &log, std::map<std::string, double> &kv)
{
    std::ifstream in(log);
    std::string tok;
    while (in >> tok) {
        const std::size_t eq = tok.find('=');
        if (eq != std::string::npos)
            kv[tok.substr(0, eq)] += std::atof(tok.c_str() + eq + 1);
    }
}

enum class SubKind
{
    Fresh,   ///< a ref never submitted before
    Dedupe,  ///< an earlier ref resent to the same daemon
    Journal, ///< an earlier ref sent to a daemon resumed on the journal
};

struct Submission
{
    std::uint64_t cycles = 0;
    SubKind kind = SubKind::Fresh;
    std::size_t round = 0; ///< timed round (Fresh and Dedupe only)
    double ms = 0.0;
    ClientOutcome outcome;
};

/** One timed submission of the smoke campaign at @p cycles. */
Submission
submit(std::uint64_t cycles, SubKind kind, std::size_t round)
{
    Submission s;
    s.cycles = cycles;
    s.kind = kind;
    s.round = round;
    ClientOptions opts;
    opts.socket_path = kSocket;
    opts.ref = CampaignRef{"smoke", cycles};
    const auto t = Clock::now();
    s.outcome = runCampaignClient(opts);
    s.ms = msSince(t);
    return s;
}

int
runService(const Args &args)
{
    Result res;
    // The daemon, its workers and the clients share every core, so the
    // probe runs on every core too.
    std::vector<RefProbe> probe(
        std::max(1u, std::thread::hardware_concurrency()));
    std::vector<double> probes{RefProbe::runTogether(probe)};

    // Set-up: daemon spawn until the first Pong, five times, each scaled
    // by the probes around it; the last daemon serves the timed phase.
    std::vector<double> setups;
    std::unique_ptr<Daemon> daemon;
    for (int rep = 0; rep < 5; ++rep) {
        daemon.reset();
        const auto t = Clock::now();
        daemon = std::make_unique<Daemon>(args, "daemon.log");
        if (!daemon->awaitPong()) {
            res.attempted = 1;
            res.failed = 1;
            res.error("campaign daemon never answered a Ping");
            res.print();
            return 1;
        }
        const double s = msSince(t) / 1000.0;
        probes.push_back(RefProbe::runTogether(probe));
        setups.push_back(
            s * RefProbe::scale(probes[probes.size() - 2], probes.back()));
    }

    // Fresh refs: distinct cycle counts derived from the seed, close
    // enough to --cycles that every seed does the same work.
    const std::uint64_t base = args.cycles + args.seed % 101;
    std::uint64_t next_fresh = 0;       // guarded by mu
    std::vector<std::uint64_t> fresh_done; // guarded by mu
    std::vector<Submission> subs;          // guarded by mu
    std::vector<std::uint64_t> sent(kClients, 0);
    std::mutex mu;

    // The timed phase runs in rounds of closed-loop traffic with the
    // service otherwise idle between them, so a probe can measure the
    // host's speed after every round.
    struct Round
    {
        double ms = 0.0;
        double scale = 1.0;
    };
    std::vector<Round> rounds;
    const double round_ms = std::min(2000.0, args.seconds * 250.0);
    const auto start = Clock::now();
    do {
        const std::size_t round = rounds.size();
        const auto round_start = Clock::now();
        auto client = [&](int id) {
            std::mt19937_64 rng(args.seed * 1000003u + round * 101u +
                                static_cast<std::uint64_t>(id));
            while (msSince(round_start) < round_ms) {
                std::uint64_t cycles = 0;
                SubKind kind = SubKind::Fresh;
                {
                    std::lock_guard<std::mutex> lock(mu);
                    if (sent[static_cast<std::size_t>(id)]++ % 4 == 3 && !fresh_done.empty()) {
                        kind = SubKind::Dedupe;
                        cycles = fresh_done[rng() % fresh_done.size()];
                    } else {
                        cycles = base + next_fresh++;
                    }
                }
                Submission s = submit(cycles, kind, round);
                std::lock_guard<std::mutex> lock(mu);
                if (kind == SubKind::Fresh && s.outcome.ok())
                    fresh_done.push_back(s.cycles);
                subs.push_back(std::move(s));
            }
        };
        std::vector<std::thread> threads;
        for (int i = 0; i < kClients; ++i)
            threads.emplace_back(client, i);
        for (std::thread &t : threads)
            t.join();
        Round r;
        r.ms = msSince(round_start);
        probes.push_back(RefProbe::runTogether(probe));
        r.scale = RefProbe::scale(probes[probes.size() - 2], probes.back());
        rounds.push_back(r);
    } while (msSince(start) < args.seconds * 1000.0);

    const double peak_rss_mb = daemon->peakRssMb();
    daemon->stop();
    daemon.reset();
    std::map<std::string, double> drain;
    addDrainReport("daemon.log", drain);

    // Journal read path: a daemon resumed on the same journal starts
    // with an empty dedupe table, so resent refs are served from its
    // journal shards.
    {
        Daemon resumed(args, "resumed.log", true);
        if (!resumed.awaitPong()) {
            ++res.attempted;
            ++res.failed;
            res.error("resumed campaign daemon never answered a Ping");
        } else {
            std::vector<std::uint64_t> refs = fresh_done;
            std::mt19937_64 rng(args.seed);
            std::shuffle(refs.begin(), refs.end(), rng);
            refs.resize(std::min<std::size_t>(refs.size(), 16));
            for (const std::uint64_t cycles : refs)
                subs.push_back(submit(cycles, SubKind::Journal, 0));
        }
        resumed.stop();
    }
    addDrainReport("resumed.log", drain);

    // Ground truth, outside the timed phase: every fresh campaign
    // through an in-process SweepEngine on every host core.
    SweepEngine engine(0);
    std::map<std::uint64_t, std::vector<std::uint32_t>> truth;
    std::vector<double> inproc_ms;
    for (const Submission &s : subs) {
        if (s.kind != SubKind::Fresh || truth.count(s.cycles))
            continue;
        const std::vector<SimJob> jobs =
            buildNamedCampaign("smoke", Cycle{s.cycles});
        const auto t = Clock::now();
        const std::vector<SimResult> results = engine.sweep(jobs);
        inproc_ms.push_back(msSince(t));
        std::vector<std::uint32_t> &fp = truth[s.cycles];
        for (const SimResult &r : results)
            fp.push_back(resultFingerprint(r));
    }

    // Verified latencies: raw, and scaled by their round's probes.
    std::vector<double> fresh_ms, fresh_scaled_ms, dedupe_ms, journal_ms;
    std::vector<double> round_jobs(rounds.size(), 0.0);
    std::vector<double> round_fresh_cycles(rounds.size(), 0.0);
    std::uint64_t attempts = 0, rejects = 0, replayed = 0;
    for (const Submission &s : subs) {
        ++res.attempted;
        attempts += static_cast<std::uint64_t>(s.outcome.report.attempts);
        rejects += s.outcome.report.rejects;
        replayed += s.outcome.report.replayed;
        const char *kinds[] = {"", " (resent)", " (resent after resume)"};
        const std::string what = "smoke@" + std::to_string(s.cycles) +
                                 kinds[static_cast<int>(s.kind)];
        if (!s.outcome.ok()) {
            ++res.failed;
            res.error(what + ": " + clientStatusName(s.outcome.status) +
                      " " + s.outcome.report.error);
            continue;
        }
        const std::vector<std::uint32_t> &want = truth[s.cycles];
        bool match = want.size() == s.outcome.outcomes.size();
        for (std::size_t j = 0; match && j < want.size(); ++j)
            match = resultFingerprint(s.outcome.outcomes[j].result) ==
                    want[j];
        if (!match) {
            ++res.failed;
            res.error(what + ": results differ from in-process truth");
            continue;
        }
        switch (s.kind) {
          case SubKind::Fresh:
            fresh_ms.push_back(s.ms);
            fresh_scaled_ms.push_back(s.ms * rounds[s.round].scale);
            for (const SimJob &job : s.outcome.jobs)
                round_fresh_cycles[s.round] +=
                    static_cast<double>(job.cycles.get());
            round_jobs[s.round] += static_cast<double>(want.size());
            break;
          case SubKind::Dedupe:
            dedupe_ms.push_back(s.ms);
            round_jobs[s.round] += static_cast<double>(want.size());
            break;
          case SubKind::Journal:
            journal_ms.push_back(s.ms);
            break;
        }
    }

    double phase_ms = 0.0, scaled_ms = 0.0, jobs = 0.0, fresh_cycles = 0.0;
    for (std::size_t r = 0; r < rounds.size(); ++r) {
        phase_ms += rounds[r].ms;
        scaled_ms += rounds[r].ms * rounds[r].scale;
        jobs += round_jobs[r];
        fresh_cycles += round_fresh_cycles[r];
    }
    const double timed_done =
        static_cast<double>(fresh_ms.size() + dedupe_ms.size());
    std::ostringstream raw;
    raw.precision(10);
    raw << "{\"submit_p50_ms\": " << median(fresh_ms)
        << ", \"submit_p90_ms\": " << percentile(fresh_ms, 0.9)
        << ", \"fresh_submissions\": " << fresh_ms.size()
        << ", \"probe_ms\": " << median(probes) << "}";
    res.fact("raw", raw.str());

    if (!args.trace) {
        // Over every fresh submission of the run, probe-scaled.
        res.metric("eval_wall_s",
                   ratio(scaled_ms * 32.0, timed_done) / 1000.0, "s");
        res.metric("sim_mcycles_per_s",
                   ratio(fresh_cycles, scaled_ms * 1000.0), "Mcycle/s");
        res.metric("submit_p50_ms", median(fresh_scaled_ms), "ms");
        res.metric("submit_p90_ms", percentile(fresh_scaled_ms, 0.9),
                   "ms");
        res.metric("setup_s", median(setups), "s");
        res.metric("peak_rss_mb", peak_rss_mb, "MB");
        res.print();
        return 0;
    }

    res.metric("client.attempts", static_cast<double>(attempts), "count");
    res.metric("client.rejects", static_cast<double>(rejects), "count");
    res.metric("client.replayed", static_cast<double>(replayed), "count");
    const char *keys[] = {"dispatched", "dedupe_hits", "journal_hits",
                          "redispatched", "worker_deaths"};
    for (const char *key : keys) {
        const auto it = drain.find(key);
        res.metric(std::string("svc.") + key,
                   it != drain.end() ? it->second : 0.0, "count");
    }
    const double inproc = median(inproc_ms);
    res.metric("svc.inproc_campaign_ms", inproc, "ms");
    res.metric("svc.fleet_overhead_ms", median(fresh_ms) - inproc, "ms");
    res.metric("svc.replay_p50_ms", median(dedupe_ms), "ms");
    res.metric("svc.journal_replay_p50_ms", median(journal_ms), "ms");
    res.metric("svc.jobs_per_s", ratio(jobs * 1000.0, phase_ms), "1/s");
    res.metric("host.ref_probe_ms", median(probes), "ms");
    res.print();
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: ckebench_harness sim --pairs A+B[,C+D] "
                 "[--seed N] [--seconds S] [--cycles C] [--trace]\n"
                 "       ckebench_harness service --daemon PATH "
                 "[--seed N] [--seconds S] [--cycles C] [--trace]\n"
                 "       ckebench_harness probe [--threads N]\n");
    return 2;
}

/** The reference probe alone, for timings taken outside the harness. */
int
runProbe(const Args &args)
{
    std::vector<RefProbe> probe(args.threads);
    std::printf("{\"probe_ms\": %.6f, \"ref_ms\": %.1f}\n",
                RefProbe::runTogether(probe), RefProbe::kRefProbeMs);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    Args args;
    args.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has = i + 1 < argc;
        if (a == "--pairs" && has)
            args.pairs = split(argv[++i], ',');
        else if (a == "--daemon" && has)
            args.daemon = argv[++i];
        else if (a == "--seed" && has)
            args.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--seconds" && has)
            args.seconds = std::atof(argv[++i]);
        else if (a == "--cycles" && has)
            args.cycles = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--threads" && has)
            args.threads = std::max<std::size_t>(
                1, std::strtoull(argv[++i], nullptr, 10));
        else if (a == "--trace")
            args.trace = true;
        else
            return usage();
    }
    try {
        if (args.mode == "sim" && !args.pairs.empty())
            return runSim(args);
        if (args.mode == "service" && !args.daemon.empty())
            return runService(args);
        if (args.mode == "probe")
            return runProbe(args);
    } catch (const SimError &e) {
        std::fprintf(stderr, "ckebench_harness: [%s] %s\n",
                     e.kind().c_str(), e.what());
        return 1;
    }
    return usage();
}

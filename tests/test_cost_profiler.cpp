/**
 * @file
 * Tests for the sampled cycle-cost profiler (sim/profiler.hpp): scope
 * nesting, per-thread sampling, fingerprint neutrality, the report
 * format ckebench parses, and disarming on a thrown SimError.
 */

#include <gtest/gtest.h>

#include <signal.h>

#include <atomic>
#include <chrono>
#include <map>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gpu.hpp"
#include "kernels/workload.hpp"
#include "sim/check.hpp"
#include "sim/profiler.hpp"

namespace ckesim {
namespace {

using Clock = std::chrono::steady_clock;

// ckebench/run.py's parsers for the CKESIM_PROF tables.
const std::regex kProfileRe(
    R"(^profile: wall (\d+\.\d) ms, attributed (\d+\.\d)%$)");
const std::regex kCompRe(R"(^  ([a-z_0-9]+) +(\d+\.\d) +\d+\.\d% +(\d+)$)");

/** A report() as ckebench reads it. */
struct Report
{
    bool well_formed = true;
    double wall_ms = 0.0;
    double attributed_pct = 0.0;
    std::map<std::string, std::uint64_t> samples;

    std::uint64_t
    of(const std::string &comp) const
    {
        const auto it = samples.find(comp);
        return it == samples.end() ? 0 : it->second;
    }

    std::uint64_t
    total() const
    {
        std::uint64_t n = 0;
        for (const auto &[name, k] : samples)
            n += k;
        return n;
    }
};

Report
parse(const Profiler &prof)
{
    std::ostringstream os;
    prof.report(os);
    std::istringstream is(os.str());
    Report r;
    std::string line;
    std::smatch m;
    std::getline(is, line);
    if (std::regex_match(line, m, kProfileRe)) {
        r.wall_ms = std::stod(m[1]);
        r.attributed_pct = std::stod(m[2]);
    } else {
        r.well_formed = false;
    }
    std::getline(is, line);
    std::istringstream header(line);
    std::vector<std::string> tokens;
    for (std::string t; header >> t;)
        tokens.push_back(t);
    if (tokens != std::vector<std::string>{"component", "ms", "%", "scopes"})
        r.well_formed = false;
    while (std::getline(is, line)) {
        if (std::regex_match(line, m, kCompRe))
            r.samples[m[1]] = std::stoull(m[3]);
        else
            r.well_formed = false;
    }
    return r;
}

ProfComp
current()
{
    return detail::t_prof_comp.load(std::memory_order_relaxed);
}

void
spinFor(std::chrono::milliseconds d)
{
    const auto end = Clock::now() + d;
    while (Clock::now() < end) {
    }
}

void
throwInside(ProfComp a, ProfComp b)
{
    ProfScope outer(a);
    ProfScope inner(b);
    throw std::runtime_error("unwind");
}

SchemeSpec
wsSpec()
{
    SchemeSpec s = makeScheme(PartitionScheme::WarpedSlicer,
                              BmiMode::None, MilMode::None);
    s.ws_profile_window = Cycle{5000};
    return s;
}

TEST(CostProfiler, NestedScopesRestoreTheOuterComponent)
{
    EXPECT_EQ(current(), ProfComp::kCount);
    {
        ProfScope sm(ProfComp::SmIssue);
        {
            ProfScope lsu(ProfComp::Lsu);
            {
                ProfScope l1d(ProfComp::L1d);
                EXPECT_EQ(current(), ProfComp::L1d);
            }
            EXPECT_EQ(current(), ProfComp::Lsu);
        }
        EXPECT_EQ(current(), ProfComp::SmIssue);
        EXPECT_THROW(throwInside(ProfComp::Noc, ProfComp::L2),
                     std::runtime_error);
        EXPECT_EQ(current(), ProfComp::SmIssue);
    }
    EXPECT_EQ(current(), ProfComp::kCount);
}

/** bp+hs under WS on 4 SMs, profiled in 10K-cycle runs until every
 *  memory stage has a sample (sampling is wall-clock, so a slow build
 *  gets there in fewer cycles), and its unprofiled twin. */
struct BusyRun
{
    Report report;
    Cycle cycles{};
    std::uint64_t profiled_fp = 0;
    std::uint64_t plain_fp = 0;
};

const BusyRun &
busyRun()
{
    static const BusyRun run = [] {
        const GpuConfig cfg = makeSmallConfig(4, 4);
        const Workload wl = makeWorkload({"bp", "hs"});
        BusyRun r;
        Profiler prof;
        prof.enable();
        Gpu gpu(cfg, wl, wsSpec());
        gpu.setProfiler(&prof);
        const char *stages[] = {"sm_issue", "noc", "l1d", "l2", "dram"};
        for (;;) {
            gpu.run(Cycle{10000});
            r.cycles += Cycle{10000};
            r.report = parse(prof);
            bool all = true;
            for (const char *s : stages)
                all = all && r.report.of(s) > 0;
            if ((all && r.report.total() >= 200) ||
                r.cycles >= Cycle{2000000})
                break;
        }
        r.profiled_fp = gpu.snapshot().fingerprint;
        Gpu plain(cfg, wl, wsSpec());
        plain.run(r.cycles);
        r.plain_fp = plain.snapshot().fingerprint;
        return r;
    }();
    return run;
}

TEST(CostProfiler, ProfiledRunKeepsTheFingerprint)
{
    EXPECT_EQ(busyRun().profiled_fp, busyRun().plain_fp);
}

TEST(CostProfiler, ProfiledRunSamplesEveryMemoryStage)
{
    const Report &r = busyRun().report;
    for (const char *s : {"sm_issue", "noc", "l1d", "l2", "dram"})
        EXPECT_GT(r.of(s), 0u) << s;
    EXPECT_GE(r.attributed_pct, 90.0);
    EXPECT_GT(r.wall_ms, 0.0);
}

TEST(CostProfiler, ReportMatchesCkebenchParsers)
{
    EXPECT_TRUE(busyRun().report.well_formed);
    // An empty profiler still prints the line and the header.
    Profiler idle;
    idle.enable();
    const Report r = parse(idle);
    EXPECT_TRUE(r.well_formed);
    EXPECT_EQ(r.total(), 0u);
    EXPECT_EQ(idle.attributedFraction(), 0.0);
}

TEST(CostProfiler, ThreadsCountOnlyTheirOwnSamples)
{
    // Each thread spins in its own component: a sample read on the
    // wrong thread, or counted into the wrong profiler, shows up as
    // a foreign row.
    Profiler pa, pb;
    pa.enable();
    pb.enable();
    auto spin = [](Profiler *prof, ProfComp comp) {
        const Profiler::Armed armed(prof);
        ProfScope scope(comp);
        spinFor(std::chrono::milliseconds(60));
    };
    std::thread a(spin, &pa, ProfComp::L2);
    std::thread b(spin, &pb, ProfComp::Dram);
    a.join();
    b.join();
    const Report ra = parse(pa);
    const Report rb = parse(pb);
    EXPECT_GT(ra.of("l2"), 0u);
    EXPECT_EQ(ra.samples.size(), 1u);
    EXPECT_GT(rb.of("dram"), 0u);
    EXPECT_EQ(rb.samples.size(), 1u);
}

TEST(CostProfiler, TwoProfiledGpusOnTwoThreads)
{
    // Neither profiler sees more samples than its own timer could
    // raise over its armed window.
    const GpuConfig cfg = makeSmallConfig(4, 4);
    const Cycle cycles{20000};
    Profiler prof[2];
    std::uint64_t fp[2] = {0, 0};
    const char *pairs[2][2] = {{"bp", "hs"}, {"sv", "ks"}};
    auto go = [&](int i) {
        prof[i].enable();
        Gpu gpu(cfg, makeWorkload({pairs[i][0], pairs[i][1]}), wsSpec());
        gpu.setProfiler(&prof[i]);
        gpu.run(cycles);
        fp[i] = gpu.snapshot().fingerprint;
    };
    std::thread t0(go, 0);
    std::thread t1(go, 1);
    t0.join();
    t1.join();
    for (int i = 0; i < 2; ++i) {
        const Report r = parse(prof[i]);
        const double period_ms =
            std::chrono::duration<double, std::milli>(kProfSamplePeriod)
                .count();
        EXPECT_LE(static_cast<double>(r.total()),
                  r.wall_ms / period_ms + 2.0);
        Gpu plain(cfg, makeWorkload({pairs[i][0], pairs[i][1]}),
                  wsSpec());
        plain.run(cycles);
        EXPECT_EQ(fp[i], plain.snapshot().fingerprint);
    }
}

std::atomic<int> g_stray_signals{0};

void
countStray(int)
{
    g_stray_signals.fetch_add(1, std::memory_order_relaxed);
}

TEST(CostProfiler, ThrowingRunLeavesNoTimerArmed)
{
    Profiler prof;
    prof.enable();
    Gpu gpu(makeSmallConfig(4, 4), makeWorkload({"sv", "ks"}), wsSpec());
    gpu.setProfiler(&prof);
    const auto start = Clock::now();
    gpu.setPollHook([start] {
        if (Clock::now() - start > std::chrono::milliseconds(20))
            raiseSimError("Test", SimCtx{}, "stop the run");
    });
    EXPECT_THROW(gpu.run(Cycle{100000000}), SimError);
    EXPECT_EQ(current(), ProfComp::kCount);
    const Report r = parse(prof);
    EXPECT_GT(r.wall_ms, 0.0);
    EXPECT_GT(r.total(), 0u);

    // The thread no longer samples into the profiler...
    {
        ProfScope scope(ProfComp::Integrity);
        ASSERT_EQ(raise(SIGPROF), 0);
    }
    EXPECT_EQ(parse(prof).of("integrity"), r.of("integrity"));

    // ...and no SIGPROF arrives once the run has unwound.
    struct sigaction count = {}, saved = {};
    count.sa_handler = &countStray;
    sigemptyset(&count.sa_mask);
    ASSERT_EQ(sigaction(SIGPROF, &count, &saved), 0);
    spinFor(std::chrono::milliseconds(20));
    ASSERT_EQ(sigaction(SIGPROF, &saved, nullptr), 0);
    EXPECT_EQ(g_stray_signals.load(), 0);

    // And the thread can be armed again.
    Profiler again;
    again.enable();
    {
        const Profiler::Armed armed(&again);
        ProfScope scope(ProfComp::Integrity);
        spinFor(std::chrono::milliseconds(20));
    }
    EXPECT_GT(parse(again).of("integrity"), 0u);
}

} // namespace
} // namespace ckesim

/**
 * @file
 * Shared Warped-Slicer profiling windows: Gpu::restorePrefix of one
 * window must end byte-identical to a straight run for every scheme
 * in the window's prefix class; SweepEngine::sweep, which shares
 * windows, must return the bytes a fresh engine's per-job run()
 * returns, for any worker count; its counters must be exact; and a
 * snapshot off the boundary or from another prefix class is refused.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/mil.hpp"
#include "metrics/journal.hpp"
#include "metrics/sweep_engine.hpp"
#include "sim/check.hpp"

namespace ckesim {
namespace {

constexpr Cycle kWindow{2000};
constexpr Cycle kMeasure{1500};

GpuConfig
shareCfg()
{
    // Four SMs: a triple profiles on three and runs kernel 0 on the
    // remainder SM, as the 16-SM machine does.
    return makeSmallConfig(4, 2);
}

SchemeSpec
ws(BmiMode bmi, MilMode mil)
{
    SchemeSpec spec =
        makeScheme(PartitionScheme::WarpedSlicer, bmi, mil);
    spec.ws_profile_window = kWindow;
    return spec;
}

SchemeSpec
smil(int l0, int l1)
{
    SchemeSpec spec = ws(BmiMode::None, MilMode::Static);
    spec.smil_limits[0] = l0;
    spec.smil_limits[1] = l1;
    return spec;
}

SchemeSpec
globalDmil(BmiMode bmi, Cycle interval)
{
    SchemeSpec spec = ws(bmi, MilMode::Dynamic);
    spec.global_dmil = true;
    spec.global_dmil_interval = interval;
    return spec;
}

/** The schemes of the measured class: every one restores a window
 *  simulated under WS-QBMI+DMIL. */
std::vector<SchemeSpec>
defaultClass()
{
    return {ws(BmiMode::None, MilMode::None),
            ws(BmiMode::QBMI, MilMode::None),
            ws(BmiMode::None, MilMode::Dynamic),
            ws(BmiMode::QBMI, MilMode::Dynamic),
            smil(3, 1),
            smil(1, kSmilInf),
            globalDmil(BmiMode::None, Cycle{1024}),
            globalDmil(BmiMode::QBMI, Cycle{512})};
}

std::uint64_t
straightFingerprint(const Workload &wl, const SchemeSpec &spec)
{
    Gpu gpu(shareCfg(), wl, spec);
    gpu.run(kWindow + kMeasure);
    return gpu.snapshot().fingerprint;
}

GpuSnapshot
window(const Workload &wl, const SchemeSpec &spec)
{
    Gpu gpu(shareCfg(), wl, spec);
    gpu.run(kWindow);
    return gpu.snapshot();
}

void
expectRestoredMatchesStraight(const Workload &wl,
                              const SchemeSpec &source,
                              const std::vector<SchemeSpec> &targets)
{
    const GpuSnapshot snap = window(wl, source);
    for (std::size_t t = 0; t < targets.size(); ++t) {
        Gpu restored(shareCfg(), wl, targets[t]);
        restored.restorePrefix(snap);
        restored.run(kMeasure);
        EXPECT_EQ(restored.snapshot().fingerprint,
                  straightFingerprint(wl, targets[t]))
            << wl.name() << " target " << t;
        EXPECT_EQ(restored.measuredCycles(), kMeasure);
    }
}

TEST(PrefixRestore, EveryClassMemberMatchesItsStraightRun)
{
    for (const Workload &wl :
         {makeWorkload({"bp", "ks"}), makeWorkload({"sv", "ks"}),
          makeWorkload({"pf", "sv", "ks"})})
        expectRestoredMatchesStraight(
            wl, ws(BmiMode::QBMI, MilMode::Dynamic), defaultClass());
}

TEST(PrefixRestore, NonQbmiWindowServesNonQbmiMembers)
{
    const Workload wl = makeWorkload({"bp", "sv"});
    expectRestoredMatchesStraight(
        wl, smil(2, 2),
        {ws(BmiMode::None, MilMode::None),
         ws(BmiMode::None, MilMode::Dynamic), smil(1, kSmilInf)});
}

TEST(PrefixRestore, RbmiAndUcpClasses)
{
    const Workload wl = makeWorkload({"bp", "sv"});
    expectRestoredMatchesStraight(
        wl, ws(BmiMode::RBMI, MilMode::Dynamic),
        {ws(BmiMode::RBMI, MilMode::None), ws(BmiMode::RBMI,
                                              MilMode::Static)});
    SchemeSpec ucp = ws(BmiMode::QBMI, MilMode::Dynamic);
    ucp.ucp = true;
    SchemeSpec ucp_plain = ws(BmiMode::None, MilMode::None);
    ucp_plain.ucp = true;
    expectRestoredMatchesStraight(wl, ucp, {ucp_plain, ucp});
}

void
expectRefused(const GpuSnapshot &snap, const Workload &wl,
              const SchemeSpec &spec, const char *what)
{
    Gpu target(shareCfg(), wl, spec);
    try {
        target.restorePrefix(snap);
        ADD_FAILURE() << "restorePrefix accepted " << what;
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), "Snapshot") << what << ": " << e.what();
    }
}

TEST(PrefixRestore, RefusesOffBoundaryAndForeignClass)
{
    const Workload wl = makeWorkload({"bp", "sv"});
    const SchemeSpec dmil = ws(BmiMode::None, MilMode::Dynamic);

    for (Cycle at : {Cycle{0}, kWindow - Cycle{1}, kWindow + Cycle{1}}) {
        Gpu gpu(shareCfg(), wl, dmil);
        gpu.run(at);
        expectRefused(gpu.snapshot(), wl, dmil, "an off-boundary snapshot");
    }

    const GpuSnapshot snap = window(wl, dmil);
    expectRefused(snap, wl, ws(BmiMode::RBMI, MilMode::Dynamic), "RBMI");
    SchemeSpec ucp = dmil;
    ucp.ucp = true;
    expectRefused(snap, wl, ucp, "UCP");
    SchemeSpec longer = dmil;
    longer.ws_profile_window = kWindow + Cycle{1};
    expectRefused(snap, wl, longer, "another window length");
    SchemeSpec mshr = dmil;
    mshr.mshr_partition = true;
    expectRefused(snap, wl, mshr, "an MSHR partition");
    expectRefused(snap, makeWorkload({"sv", "bp"}), dmil,
                  "swapped kernels");
    expectRefused(snap, wl,
                  makeScheme(PartitionScheme::Spatial, BmiMode::None,
                             MilMode::None),
                  "Spatial");

    // The full restore still wants the identical setup.
    Gpu other(shareCfg(), wl, ws(BmiMode::None, MilMode::None));
    EXPECT_THROW(other.restore(snap), SimError);
}

// ---- the engine ------------------------------------------------------

class TempFile
{
  public:
    explicit TempFile(const std::string &tag)
        : path_(std::string(::testing::TempDir()) +
                "ckesim_prefix_share_" + tag + ".bin")
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/**
 * Shared and unshared jobs mixed: a 13-member class (9 SMIL grid
 * points and four BMI x MIL specs) that the chunk cap splits at 4
 * workers; a class of named schemes, on a 2-SM machine at the
 * default window, with a duplicate; and one job each with series,
 * faults, oracle curves, an SMK name and Spatial.
 */
std::vector<SimJob>
mixedBatch()
{
    const GpuConfig cfg = shareCfg();
    const GpuConfig two = makeSmallConfig(2, 2);
    const Workload a = makeWorkload({"bp", "sv"});
    const Workload b = makeWorkload({"pf", "bp"});
    std::vector<SimJob> jobs;
    for (int l0 : {1, 2, kSmilInf})
        for (int l1 : {1, 3, kSmilInf})
            jobs.push_back(
                SimJob::concurrent(cfg, kMeasure, a, smil(l0, l1)));
    for (BmiMode bmi : {BmiMode::None, BmiMode::QBMI})
        for (MilMode mil : {MilMode::None, MilMode::Dynamic})
            jobs.push_back(
                SimJob::concurrent(cfg, kMeasure, a, ws(bmi, mil)));
    for (NamedScheme s : {NamedScheme::WS, NamedScheme::WS_QBMI_DMIL,
                          NamedScheme::WS})
        jobs.push_back(SimJob::concurrent(two, kMeasure, b, s));

    SimJob series = SimJob::concurrent(cfg, kMeasure, a,
                                       ws(BmiMode::None, MilMode::None));
    series.series.issue = true;
    jobs.push_back(series);
    SchemeSpec faulty = ws(BmiMode::None, MilMode::None);
    faulty.faults.push_back({FaultKind::DelayFill, Cycle{100},
                             Cycle{1000}, -1, 8, Cycle{50}});
    jobs.push_back(SimJob::concurrent(cfg, kMeasure, a, faulty));
    SchemeSpec oracle = ws(BmiMode::None, MilMode::None);
    oracle.oracle_curves.resize(2);
    for (int t = 1; t <= 8; ++t) {
        oracle.oracle_curves[0].addPoint(t, 0.25 * t);
        oracle.oracle_curves[1].addPoint(t, 0.5);
    }
    jobs.push_back(SimJob::concurrent(cfg, kMeasure, a, oracle));
    jobs.push_back(
        SimJob::concurrent(cfg, kMeasure, a, NamedScheme::SMK_PW));
    jobs.push_back(
        SimJob::concurrent(cfg, kMeasure, b, NamedScheme::Spatial));
    return jobs;
}

std::vector<std::vector<std::uint8_t>>
encodeAll(const std::vector<SimResult> &results)
{
    std::vector<std::vector<std::uint8_t>> out;
    for (const SimResult &r : results)
        out.push_back(encodeSimResult(r));
    return out;
}

TEST(PrefixShareSweep, MatchesPerJobRunsAtAnyWorkerCount)
{
    const std::vector<SimJob> jobs = mixedBatch();
    std::vector<SimResult> want;
    {
        SweepEngine fresh(1);
        for (const SimJob &job : jobs)
            want.push_back(fresh.run(job));
        EXPECT_EQ(fresh.stats().prefix_runs, 0u);
    }
    const auto want_bytes = encodeAll(want);

    for (int workers : {1, 4}) {
        // Journal a few members first: they are served, not
        // simulated. Job 2 is in the large class; job 13 leaves the
        // named class one member to simulate (15 duplicates it), so
        // that class runs straight through; job 16 has series.
        TempFile tmp("w" + std::to_string(workers));
        ResultJournal journal;
        journal.open(tmp.path());
        for (std::size_t i : {std::size_t{2}, std::size_t{13},
                              std::size_t{16}})
            journal.append(jobs[i].key(), want[i]);

        SweepEngine engine(workers);
        engine.setJournal(&journal);
        EXPECT_EQ(encodeAll(engine.sweep(jobs)), want_bytes)
            << workers << " workers";
        const SweepStats s = engine.stats();
        EXPECT_EQ(s.journal_hits, 3u);
        // 16 eligible jobs. At 1 worker the large class is one chunk:
        // 12 members to simulate, 1 window. At 4 the cap is 4: chunks
        // of 3 (job 2 journaled), 4, 4 and 1 (straight through).
        EXPECT_EQ(s.prefix_runs, workers == 1 ? 1u : 3u);
        EXPECT_EQ(s.prefix_restores, workers == 1 ? 11u : 8u);
        engine.setJournal(nullptr);
    }
}

TEST(PrefixShareSweep, F11ShapedBatchCountsExactly)
{
    // f11: every representative pair under WS-QBMI, WS-DMIL and
    // WS-QBMI+DMIL. One window per pair, two restores.
    const GpuConfig cfg = makeSmallConfig(2, 2);
    std::vector<SimJob> jobs;
    for (const Workload &w : representativePairs())
        for (NamedScheme s : {NamedScheme::WS_QBMI, NamedScheme::WS_DMIL,
                              NamedScheme::WS_QBMI_DMIL})
            jobs.push_back(SimJob::concurrent(cfg, Cycle{400}, w, s));
    ASSERT_EQ(jobs.size(), 51u);

    SweepEngine engine(4);
    engine.sweep(jobs);
    const SweepStats s = engine.stats();
    EXPECT_EQ(s.prefix_runs, 17u);
    EXPECT_EQ(s.prefix_restores, 34u);
    EXPECT_EQ(s.sims_executed - s.isolated_runs, 51u);

    // A second sweep is all memo hits: nothing simulates.
    engine.sweep(jobs);
    EXPECT_EQ(engine.stats().prefix_runs, 17u);
    EXPECT_EQ(engine.stats().sims_executed, s.sims_executed);
}

} // namespace
} // namespace ckesim

/**
 * @file
 * Crash-recovery soak for the sweep layer: a journaled sweep killed
 * mid-flight must resume to a byte-identical final table at any
 * worker count; a failed job must surface its original error and
 * never poison the memo cache for an identical resubmission; and the
 * campaign client's retry backoff is deterministic and bounded.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "campaign/campaign_engine.hpp"
#include "campaign/client.hpp"
#include "metrics/experiment.hpp"
#include "metrics/journal.hpp"
#include "metrics/sweep_engine.hpp"
#include "sim/check.hpp"
#include "sim/procfault.hpp"

namespace ckesim {
namespace {

class TempFile
{
  public:
    explicit TempFile(const std::string &tag)
        : path_(std::string(::testing::TempDir()) +
                "ckesim_recovery_" + tag + ".bin")
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

GpuConfig
recoveryCfg()
{
    return makeSmallConfig(2, 2);
}

/**
 * A mixed sweep: isolated baselines, three scheme families, and a
 * recoverable fault-injection job — the job population a real bench
 * binary submits.
 */
std::vector<SimJob>
buildJobs()
{
    const GpuConfig cfg = recoveryCfg();
    const Cycle cycles{4000};
    const Workload mixed = makeWorkload({"bp", "sv"});
    const Workload mem = makeWorkload({"sv", "ks"});

    std::vector<SimJob> jobs;
    jobs.push_back(
        SimJob::isolated(cfg, cycles, *mixed.kernels[0]));
    jobs.push_back(
        SimJob::isolated(cfg, cycles, *mixed.kernels[1]));
    jobs.push_back(
        SimJob::concurrent(cfg, cycles, mixed, NamedScheme::WS));
    jobs.push_back(SimJob::concurrent(cfg, cycles, mixed,
                                      NamedScheme::WS_QBMI_DMIL));
    jobs.push_back(
        SimJob::concurrent(cfg, cycles, mem, NamedScheme::SMK_PW));

    SchemeSpec faulted = makeScheme(PartitionScheme::Spatial,
                                    BmiMode::None, MilMode::None);
    faulted.faults.push_back({FaultKind::DelayFill, Cycle{200},
                              Cycle{2000}, -1, 16, Cycle{100}});
    jobs.push_back(SimJob::concurrent(cfg, cycles, mem, faulted));
    return jobs;
}

/** Byte-exact encoding of a whole result table. */
std::vector<std::vector<std::uint8_t>>
encodeTable(const std::vector<SimResult> &results)
{
    std::vector<std::vector<std::uint8_t>> table;
    table.reserve(results.size());
    for (const SimResult &r : results)
        table.push_back(encodeSimResult(r));
    return table;
}

// ---- journaled resume --------------------------------------------------

TEST(Recovery, KilledSweepResumesToByteIdenticalTable)
{
    const std::vector<SimJob> jobs = buildJobs();

    // Ground truth: one uninterrupted, unjournaled sweep.
    SweepEngine baseline(2);
    const auto want = encodeTable(baseline.sweep(jobs));

    // First attempt: journaled, killed once at least one result is
    // durable: a poll hook throws from every running simulation (the
    // in-process stand-in for SIGKILL, since a real kill would take
    // the test runner with it). The journal's fsync contract makes
    // this equivalent to dying at an arbitrary instruction boundary;
    // torn-tail handling is covered separately in test_journal.
    TempFile tmp("resume");
    {
        struct Killed
        {
        };
        SweepEngine engine(2);
        ResultJournal journal;
        journal.open(tmp.path());
        engine.setJournal(&journal);
        engine.setPollHook([&journal] {
            if (journal.size() > 0)
                throw Killed{};
        });
        try {
            (void)engine.sweep(jobs);
        } catch (const Killed &) {
        }
        EXPECT_GE(journal.size(), 1u);
    }

    // Resume with various worker counts: completed work must be
    // served from the journal and the final table must be
    // byte-identical to the uninterrupted run.
    for (const int workers : {1, 2, 4}) {
        TempFile copy("resume_w" + std::to_string(workers));
        // Each resume gets its own copy of the crash-time journal so
        // the three worker counts start from the same crash state.
        // Only top-level results are copied, so count them: the
        // journal also holds nested baselines (the isolated ks run
        // behind sv+ks).
        std::uint64_t copied = 0;
        {
            ResultJournal src;
            src.open(tmp.path());
            ResultJournal dst;
            dst.open(copy.path());
            SimResult r;
            for (const SimJob &job : jobs) {
                if (src.find(job.key(), r)) {
                    dst.append(job.key(), r);
                    ++copied;
                }
            }
        }
        SweepEngine engine(workers);
        ResultJournal journal;
        journal.open(copy.path());
        EXPECT_EQ(journal.stats().loaded, copied);
        engine.setJournal(&journal);
        const auto got = encodeTable(engine.sweep(jobs));
        EXPECT_EQ(got, want) << "resume with " << workers
                             << " workers diverged";
        EXPECT_EQ(engine.stats().journal_hits, copied);
        // Second run over the now-complete journal simulates nothing.
        SweepEngine replay(workers);
        ResultJournal full;
        full.open(copy.path());
        replay.setJournal(&full);
        EXPECT_EQ(encodeTable(replay.sweep(jobs)), want);
        EXPECT_EQ(replay.stats().sims_executed, 0u);
    }
}

TEST(Recovery, JournaledRunIsByteIdenticalForAnyWorkerCount)
{
    const std::vector<SimJob> jobs = buildJobs();
    SweepEngine baseline(1);
    const auto want = encodeTable(baseline.sweep(jobs));
    for (const int workers : {2, 4}) {
        TempFile tmp("jobs" + std::to_string(workers));
        SweepEngine engine(workers);
        ResultJournal journal;
        journal.open(tmp.path());
        engine.setJournal(&journal);
        EXPECT_EQ(encodeTable(engine.sweep(jobs)), want);
        // Nested sub-jobs (isolated baselines pulled in by the
        // concurrent jobs) are journaled too, so >= not ==.
        EXPECT_GE(journal.size(), jobs.size());
    }
}

// ---- failed jobs -------------------------------------------------------

TEST(Recovery, FailedJobDoesNotPoisonTheMemoCache)
{
    // A job that fails must be recomputable: clearing the cause and
    // resubmitting the IDENTICAL job (same key) has to re-run it, not
    // replay the memoized exception.
    const std::vector<SimJob> jobs = buildJobs();
    struct Stopped
    {
    };
    SweepEngine engine(2);
    engine.setPollHook([] { throw Stopped{}; });
    EXPECT_THROW((void)engine.run(jobs[2]), Stopped);

    engine.setPollHook(nullptr);
    SimResult result;
    EXPECT_NO_THROW(result = engine.run(jobs[2]));
    ASSERT_NE(result.concurrent, nullptr);
    EXPECT_GT(result.concurrent->weighted_speedup, 0.0);
}

TEST(Recovery, FaultJobFailureIsSurfaced)
{
    // A hard fault (dropped fills deadlock the SM) must surface the
    // ORIGINAL watchdog error through the engine, not mask it.
    const GpuConfig cfg = recoveryCfg();
    SchemeSpec dead = makeScheme(PartitionScheme::Spatial,
                                 BmiMode::None, MilMode::None);
    dead.faults.push_back({FaultKind::DropFill, Cycle{0}, kNeverCycle,
                           -1, -1, Cycle{}});
    const SimJob job = SimJob::concurrent(
        cfg, Cycle{16000}, makeWorkload({"sv", "ks"}), dead);

    SweepEngine engine(1);
    try {
        (void)engine.run(job);
        FAIL() << "deadlocked fault job completed";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), "Watchdog") << e.what();
    }
}

// ---- deterministic jittered backoff ------------------------------------

TEST(Recovery, RetryBackoffIsDeterministicAndBounded)
{
    const std::uint64_t base_ms = 100;
    for (const std::uint64_t key :
         {0x1ULL, 0xdeadbeefULL, 0xffffffffffffffffULL}) {
        for (int attempt = 0; attempt < 6; ++attempt) {
            const std::uint64_t base = base_ms
                                       << static_cast<unsigned>(
                                              attempt);
            const std::uint64_t ms =
                retryBackoffMs(base_ms, key, attempt);
            // Same (key, attempt) -> same backoff, every time.
            EXPECT_EQ(ms, retryBackoffMs(base_ms, key, attempt));
            // Bounded: base <= ms <= base + half of base.
            EXPECT_GE(ms, base);
            EXPECT_LE(ms, base + base / 2);
        }
    }
    // Distinct keys must desynchronize (not retry in lockstep).
    EXPECT_NE(retryBackoffMs(base_ms, 0x1ULL, 3),
              retryBackoffMs(base_ms, 0xdeadbeefULL, 3));
    // Zero base: always immediate.
    EXPECT_EQ(retryBackoffMs(0, 0xabcULL, 4), 0u);
}

// ---- campaign determinism across worker counts ------------------------

TEST(Recovery, CampaignTableIsByteIdenticalAcrossWorkersAndKills)
{
    // Workers=1 without faults is the ground truth; 2 and 4 workers
    // run the same campaign while every worker touching job 1 is
    // SIGKILLed on the first dispatch attempt. The per-job encoded
    // results must be byte-identical in all cases, and the one
    // journal must hold exactly one record per job: a killed worker
    // never returned its result, so nothing was appended twice.
    const std::vector<SimJob> jobs = buildJobs();

    std::vector<std::vector<std::uint8_t>> want_table;
    for (const int workers : {1, 2, 4}) {
        TempFile tmp("campaign_w" + std::to_string(workers));
        CampaignOptions opts;
        opts.workers = workers;
        opts.journal_base = tmp.path();
        opts.heartbeat_ms = 5;
        if (workers > 1) {
            ProcFaultSpec kill;
            kill.kind = ProcFaultKind::KillWorkerMidJob;
            kill.job_index = 1;
            kill.attempts = 1;
            opts.faults = ProcFaultPlan({kill});
        }
        CampaignEngine engine(opts);
        const CampaignOutcome outcome = engine.run(jobs);
        ASSERT_TRUE(outcome.allCompleted())
            << workers << " workers";
        if (workers > 1) {
            EXPECT_GE(outcome.report.worker_deaths, 1u);
        }

        std::vector<std::vector<std::uint8_t>> table;
        for (const CampaignJobOutcome &job : outcome.jobs)
            table.push_back(encodeSimResult(job.result));
        if (workers == 1) {
            want_table = table;
        } else {
            EXPECT_EQ(table, want_table)
                << workers << "-worker table diverged from the "
                              "single-worker ground truth";
        }

        const JournalFsckReport journal = fsckJournal(tmp.path());
        EXPECT_TRUE(journal.clean());
        EXPECT_EQ(journal.torn_bytes, 0u);
        EXPECT_EQ(journal.ok_records, jobs.size());
        EXPECT_EQ(journal.distinct_keys, jobs.size());
    }
}

// ---- the bench CLI plumbing --------------------------------------------

TEST(Recovery, ParseBenchArgsExtractsResume)
{
    const char *argv_in[] = {"bench", "--resume", "sweep.journal",
                             "--jobs=2", nullptr};
    char *argv[5];
    for (int i = 0; i < 4; ++i)
        argv[i] = const_cast<char *>(argv_in[i]);
    argv[4] = nullptr;
    int argc = 4;
    const BenchOptions opts = parseBenchArgs(argc, argv);
    EXPECT_EQ(opts.resume, "sweep.journal");
    EXPECT_EQ(opts.jobs, 2);
    EXPECT_EQ(argc, 1); // both flags consumed
}

} // namespace
} // namespace ckesim

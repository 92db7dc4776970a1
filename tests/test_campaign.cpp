/**
 * @file
 * Campaign orchestrator suite: the wire protocol survives chunked
 * delivery and flags corruption; fleet faults are deterministic; a
 * campaign at any worker count — including under injected worker
 * SIGKILLs, stalls, dropped results and corrupted frames — produces
 * a result table byte-identical to an in-process SweepEngine run; a
 * poison job is quarantined instead of retried forever; spawn failure
 * degrades to in-process execution; drain is clean; journal_fsck
 * tells benign torn tails from hard corruption; and a worker runs the
 * job its Dispatch carries, refusing one that does not decode to the
 * frame's key.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign_engine.hpp"
#include "campaign/campaign_spec.hpp"
#include "campaign/wire.hpp"
#include "campaign/worker.hpp"
#include "metrics/journal.hpp"
#include "metrics/sweep_engine.hpp"
#include "sim/check.hpp"
#include "sim/procfault.hpp"

namespace ckesim {
namespace {

class TempBase
{
  public:
    explicit TempBase(const std::string &tag)
        : base_(std::string(::testing::TempDir()) +
                "ckesim_campaign_" + tag)
    {
        cleanup();
    }
    ~TempBase() { cleanup(); }
    const std::string &base() const { return base_; }

  private:
    void cleanup()
    {
        for (int slot = 0; slot < 16; ++slot)
            std::remove(
                CampaignEngine::shardPath(base_, slot).c_str());
        std::remove(CampaignEngine::mergedPath(base_).c_str());
    }
    std::string base_;
};

std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

/** Small, fast job list with a duplicate-key pair on the end. */
std::vector<SimJob>
buildJobs()
{
    const GpuConfig cfg = makeSmallConfig(2, 2);
    const Cycle cycles{2000};
    const Workload mixed = makeWorkload({"bp", "sv"});
    const Workload mem = makeWorkload({"sv", "ks"});

    std::vector<SimJob> jobs;
    jobs.push_back(SimJob::isolated(cfg, cycles, *mixed.kernels[0]));
    jobs.push_back(
        SimJob::concurrent(cfg, cycles, mixed, NamedScheme::WS));
    jobs.push_back(
        SimJob::concurrent(cfg, cycles, mem, NamedScheme::SMK_PW));
    jobs.push_back(SimJob::concurrent(cfg, cycles, mixed,
                                      NamedScheme::WS_QBMI_DMIL));
    // Same content as jobs[1]: duplicate keys must resolve together.
    jobs.push_back(
        SimJob::concurrent(cfg, cycles, mixed, NamedScheme::WS));
    return jobs;
}

/** The campaign's table, encoded for byte-exact comparison. */
std::vector<std::vector<std::uint8_t>>
encodeOutcome(const CampaignOutcome &outcome)
{
    std::vector<std::vector<std::uint8_t>> table;
    for (const CampaignJobOutcome &job : outcome.jobs)
        table.push_back(encodeSimResult(job.result));
    return table;
}

std::vector<std::vector<std::uint8_t>>
encodeTable(const std::vector<SimResult> &results)
{
    std::vector<std::vector<std::uint8_t>> table;
    for (const SimResult &r : results)
        table.push_back(encodeSimResult(r));
    return table;
}

/** Ground truth: the same jobs through a serial in-process engine. */
const std::vector<std::vector<std::uint8_t>> &
groundTruth()
{
    static const std::vector<std::vector<std::uint8_t>> want = [] {
        SweepEngine engine(1);
        return encodeTable(engine.sweep(buildJobs()));
    }();
    return want;
}

CampaignOptions
fastOptions()
{
    CampaignOptions opts;
    opts.heartbeat_ms = 5;
    opts.liveness_deadline_ms = 2000;
    return opts;
}

// ---- wire protocol -----------------------------------------------------

TEST(CampaignWire, FramesSurviveArbitraryChunking)
{
    std::vector<Frame> sent;
    for (int i = 0; i < 5; ++i) {
        Frame f;
        f.type = i % 2 == 0 ? FrameType::Result
                            : FrameType::Heartbeat;
        f.job_index = static_cast<std::uint32_t>(i);
        f.aux = static_cast<std::uint32_t>(i * 7);
        f.key = 0x1234567890abcdefULL + static_cast<unsigned>(i);
        for (int b = 0; b < i * 13; ++b)
            f.payload.push_back(static_cast<std::uint8_t>(b));
        sent.push_back(f);
    }
    std::vector<std::uint8_t> stream;
    for (const Frame &f : sent) {
        const auto bytes = encodeFrame(f);
        stream.insert(stream.end(), bytes.begin(), bytes.end());
    }
    // Deliver one byte at a time: the nastiest chunking there is.
    FrameParser parser;
    std::vector<Frame> got;
    Frame out;
    for (const std::uint8_t byte : stream) {
        parser.feed(&byte, 1);
        while (parser.next(out))
            got.push_back(out);
    }
    ASSERT_FALSE(parser.corrupt()) << parser.corruptReason();
    ASSERT_EQ(got.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
        EXPECT_EQ(got[i].type, sent[i].type);
        EXPECT_EQ(got[i].job_index, sent[i].job_index);
        EXPECT_EQ(got[i].aux, sent[i].aux);
        EXPECT_EQ(got[i].key, sent[i].key);
        EXPECT_EQ(got[i].payload, sent[i].payload);
    }
}

TEST(CampaignWire, CorruptionIsStickyAndDiagnosed)
{
    Frame f;
    f.type = FrameType::Result;
    f.key = 42;
    f.payload = {1, 2, 3, 4, 5, 6, 7, 8};
    auto bytes = encodeFrame(f);
    bytes[kFrameHeaderBytes + 3] ^= 0xffu; // flip a payload byte

    FrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    EXPECT_TRUE(parser.corrupt());
    EXPECT_FALSE(parser.corruptReason().empty());
    Frame out;
    EXPECT_FALSE(parser.next(out));
    // Further feeds must not resurrect the stream.
    const auto good = encodeFrame(f);
    parser.feed(good.data(), good.size());
    EXPECT_TRUE(parser.corrupt());
    EXPECT_FALSE(parser.next(out));
}

TEST(CampaignWire, BadMagicAndBadVersionAreCorrupt)
{
    Frame f;
    f.type = FrameType::Heartbeat;
    {
        auto bytes = encodeFrame(f);
        bytes[0] ^= 0xffu; // magic
        FrameParser parser;
        parser.feed(bytes.data(), bytes.size());
        EXPECT_TRUE(parser.corrupt());
    }
    {
        auto bytes = encodeFrame(f);
        bytes[4] += 1; // version
        FrameParser parser;
        parser.feed(bytes.data(), bytes.size());
        EXPECT_TRUE(parser.corrupt());
    }
}

TEST(CampaignWire, JobErrorPayloadRoundTrips)
{
    const auto bytes =
        encodeJobError("Watchdog", "SM 3 made no progress");
    std::string kind;
    std::string detail;
    decodeJobError(bytes, kind, detail);
    EXPECT_EQ(kind, "Watchdog");
    EXPECT_EQ(detail, "SM 3 made no progress");
}

// ---- fault plan semantics ----------------------------------------------

TEST(ProcFault, AttemptGateAndFiltersAndBudget)
{
    ProcFaultSpec kill_once;
    kill_once.kind = ProcFaultKind::KillWorkerMidJob;
    kill_once.job_index = 2;
    kill_once.attempts = 1;

    ProcFaultSpec stall_w1;
    stall_w1.kind = ProcFaultKind::StallHeartbeat;
    stall_w1.worker = 1;
    stall_w1.attempts = 100;
    stall_w1.budget = 2;

    ProcFaultPlan plan({kill_once, stall_w1});
    // attempt gate: fires on attempt 0 only.
    EXPECT_TRUE(
        plan.fire(ProcFaultKind::KillWorkerMidJob, 0, 2, 0));
    EXPECT_FALSE(
        plan.fire(ProcFaultKind::KillWorkerMidJob, 0, 2, 1));
    // job filter: other jobs untouched.
    EXPECT_FALSE(
        plan.fire(ProcFaultKind::KillWorkerMidJob, 0, 3, 0));
    // worker filter + budget: two firings for worker 1, then dry.
    EXPECT_FALSE(plan.fire(ProcFaultKind::StallHeartbeat, 0, 5, 0));
    EXPECT_TRUE(plan.fire(ProcFaultKind::StallHeartbeat, 1, 5, 0));
    EXPECT_TRUE(plan.fire(ProcFaultKind::StallHeartbeat, 1, 6, 3));
    EXPECT_FALSE(plan.fire(ProcFaultKind::StallHeartbeat, 1, 7, 0));
    EXPECT_EQ(plan.firedCount(ProcFaultKind::StallHeartbeat), 2u);
    EXPECT_EQ(plan.firedCount(ProcFaultKind::KillWorkerMidJob), 1u);
}

TEST(ProcFault, ValidateRejectsNonsense)
{
    ProcFaultSpec spec;
    spec.kind = ProcFaultKind::None;
    EXPECT_THROW(validateProcFaultSpec(spec), SimError);
    spec.kind = ProcFaultKind::KillWorkerMidJob;
    spec.attempts = 0;
    EXPECT_THROW(validateProcFaultSpec(spec), SimError);
    spec.attempts = 1;
    spec.worker = -2;
    EXPECT_THROW(validateProcFaultSpec(spec), SimError);
}

// ---- healthy campaigns -------------------------------------------------

TEST(Campaign, MatchesInProcessTableAtAnyWorkerCount)
{
    const std::vector<SimJob> jobs = buildJobs();
    for (const int workers : {1, 2, 4}) {
        CampaignOptions opts = fastOptions();
        opts.workers = workers;
        CampaignEngine engine(opts);
        const CampaignOutcome outcome = engine.run(jobs);
        ASSERT_TRUE(outcome.allCompleted())
            << workers << " workers";
        EXPECT_EQ(encodeOutcome(outcome), groundTruth())
            << workers << " workers diverged";
        EXPECT_FALSE(outcome.report.degraded_in_process);
        EXPECT_EQ(outcome.report.completed, jobs.size());
    }
}

TEST(Campaign, DuplicateKeysDispatchOnceAndResolveTogether)
{
    const std::vector<SimJob> jobs = buildJobs();
    CampaignOptions opts = fastOptions();
    // One worker: dispatch is serial, so job 4 (duplicate of job 1)
    // is deterministically resolved before its turn comes.
    opts.workers = 1;
    CampaignEngine engine(opts);
    const CampaignOutcome outcome = engine.run(jobs);
    ASSERT_TRUE(outcome.allCompleted());
    // jobs[4] duplicates jobs[1]: at most one dispatch for the pair.
    EXPECT_LT(outcome.report.dispatched, jobs.size());
    EXPECT_EQ(encodeOutcome(outcome).at(4),
              encodeOutcome(outcome).at(1));
}

// ---- kill / recover ----------------------------------------------------

TEST(Campaign, WorkerSigkillIsRedispatchedByteIdentically)
{
    const std::vector<SimJob> jobs = buildJobs();
    // Target job 2: a unique concurrent job, so neither a duplicate
    // key nor a worker's nested-baseline memo can resolve it without
    // an actual re-dispatched simulation.
    ProcFaultSpec kill;
    kill.kind = ProcFaultKind::KillWorkerMidJob;
    kill.job_index = 2;
    kill.attempts = 1; // first dispatch attempt dies, retry runs

    CampaignOptions opts = fastOptions();
    opts.workers = 2;
    opts.faults = ProcFaultPlan({kill});
    CampaignEngine engine(opts);
    const CampaignOutcome outcome = engine.run(jobs);
    ASSERT_TRUE(outcome.allCompleted());
    EXPECT_EQ(encodeOutcome(outcome), groundTruth());
    EXPECT_GE(outcome.report.worker_deaths, 1u);
    EXPECT_GE(outcome.report.redispatched, 1u);
    EXPECT_GE(outcome.report.workers_respawned, 1u);
    EXPECT_GE(outcome.jobs[2].attempts, 2);
}

TEST(Campaign, PoisonJobIsQuarantinedOthersComplete)
{
    const std::vector<SimJob> jobs = buildJobs();
    ProcFaultSpec poison;
    poison.kind = ProcFaultKind::KillWorkerMidJob;
    poison.job_index = 2;
    poison.attempts = 1000; // kills every worker that touches it

    CampaignOptions opts = fastOptions();
    opts.workers = 2;
    opts.poison_worker_deaths = 2;
    opts.faults = ProcFaultPlan({poison});
    CampaignEngine engine(opts);
    const CampaignOutcome outcome = engine.run(jobs);

    EXPECT_EQ(outcome.jobs[2].state, CampaignJobState::Poisoned);
    EXPECT_EQ(outcome.jobs[2].error_kind, "Poisoned");
    EXPECT_FALSE(outcome.jobs[2].error_detail.empty());
    EXPECT_EQ(outcome.report.poisoned, 1u);
    // Exactly poison_worker_deaths workers died to it — bounded, not
    // an infinite kill loop.
    EXPECT_EQ(outcome.report.worker_deaths, 2u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (i != 2) {
            EXPECT_TRUE(outcome.jobs[i].ok()) << "job " << i;
        }
    }
}

TEST(Campaign, StalledWorkerIsKilledAndJobRecovered)
{
    const std::vector<SimJob> jobs = buildJobs();
    // Job 2 is unique (see WorkerSigkillIsRedispatchedByteIdentically)
    // so the stalled worker cannot be rescued by a duplicate's result:
    // only the liveness deadline can recover the job.
    ProcFaultSpec stall;
    stall.kind = ProcFaultKind::StallHeartbeat;
    stall.job_index = 2;
    stall.attempts = 1;

    CampaignOptions opts = fastOptions();
    opts.workers = 2;
    opts.liveness_deadline_ms = 300; // keep the test quick
    opts.faults = ProcFaultPlan({stall});
    CampaignEngine engine(opts);
    const CampaignOutcome outcome = engine.run(jobs);
    ASSERT_TRUE(outcome.allCompleted());
    EXPECT_EQ(encodeOutcome(outcome), groundTruth());
    EXPECT_GE(outcome.report.hung_workers_killed, 1u);
}

TEST(Campaign, DroppedResultIsRecoveredViaLivenessDeadline)
{
    const std::vector<SimJob> jobs = buildJobs();
    ProcFaultSpec drop;
    drop.kind = ProcFaultKind::DropResult;
    drop.job_index = 2;
    drop.attempts = 1;

    CampaignOptions opts = fastOptions();
    opts.workers = 2;
    opts.liveness_deadline_ms = 300;
    opts.faults = ProcFaultPlan({drop});
    CampaignEngine engine(opts);
    const CampaignOutcome outcome = engine.run(jobs);
    ASSERT_TRUE(outcome.allCompleted());
    EXPECT_EQ(encodeOutcome(outcome), groundTruth());
    EXPECT_GE(outcome.report.hung_workers_killed, 1u);
}

TEST(Campaign, CorruptFrameKillsWorkerAndRedispatches)
{
    const std::vector<SimJob> jobs = buildJobs();
    ProcFaultSpec corrupt;
    corrupt.kind = ProcFaultKind::CorruptFrame;
    corrupt.job_index = 1;
    corrupt.attempts = 1;

    CampaignOptions opts = fastOptions();
    opts.workers = 2;
    opts.faults = ProcFaultPlan({corrupt});
    CampaignEngine engine(opts);
    const CampaignOutcome outcome = engine.run(jobs);
    ASSERT_TRUE(outcome.allCompleted());
    EXPECT_EQ(encodeOutcome(outcome), groundTruth());
    EXPECT_GE(outcome.report.corrupt_frames, 1u);
    EXPECT_GE(outcome.report.redispatched, 1u);
}

TEST(Campaign, ExhaustedJobSurfacesStructuredError)
{
    const std::vector<SimJob> jobs = buildJobs();
    // Job 3 is a unique concurrent job: every dispatch attempt must
    // actually simulate (a respawned worker's memo cache is empty),
    // so the kill fault fires on every attempt and the attempt
    // budget is what ends the job. An isolated job would not work
    // here — a respawned worker can serve it from the nested
    // baseline memo of an earlier concurrent job without ever
    // polling, dodging the fault.
    ProcFaultSpec poison;
    poison.kind = ProcFaultKind::KillWorkerMidJob;
    poison.job_index = 3;
    poison.attempts = 1000;

    CampaignOptions opts = fastOptions();
    opts.workers = 1;
    opts.max_dispatch_attempts = 2;
    opts.poison_worker_deaths = 1000; // poison gate out of the way
    opts.faults = ProcFaultPlan({poison});
    CampaignEngine engine(opts);
    const CampaignOutcome outcome = engine.run(jobs);
    EXPECT_EQ(outcome.jobs[3].state, CampaignJobState::Exhausted);
    EXPECT_EQ(outcome.jobs[3].attempts, 2);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (i != 3) {
            EXPECT_TRUE(outcome.jobs[i].ok()) << "job " << i;
        }
    }
}

// ---- degradation and drain ---------------------------------------------

TEST(Campaign, SpawnFailureDegradesToInProcess)
{
    const std::vector<SimJob> jobs = buildJobs();
    ProcFaultSpec fail;
    fail.kind = ProcFaultKind::FailSpawn;
    fail.attempts = 1000; // every spawn attempt fails

    CampaignOptions opts = fastOptions();
    opts.workers = 2;
    opts.faults = ProcFaultPlan({fail});
    CampaignEngine engine(opts);
    const CampaignOutcome outcome = engine.run(jobs);
    ASSERT_TRUE(outcome.allCompleted());
    EXPECT_TRUE(outcome.report.degraded_in_process);
    EXPECT_EQ(encodeOutcome(outcome), groundTruth());
    EXPECT_EQ(outcome.report.dispatched, 0u);
}

TEST(Campaign, ForcedInProcessMatchesFleet)
{
    const std::vector<SimJob> jobs = buildJobs();
    CampaignOptions opts = fastOptions();
    opts.force_in_process = true;
    CampaignEngine engine(opts);
    const CampaignOutcome outcome = engine.run(jobs);
    ASSERT_TRUE(outcome.allCompleted());
    EXPECT_TRUE(outcome.report.degraded_in_process);
    EXPECT_EQ(encodeOutcome(outcome), groundTruth());
}

TEST(Campaign, PreRequestedDrainMarksEverythingDrained)
{
    const std::vector<SimJob> jobs = buildJobs();
    CampaignOptions opts = fastOptions();
    opts.workers = 2;
    CampaignEngine engine(opts);
    engine.requestDrain();
    const CampaignOutcome outcome = engine.run(jobs);
    EXPECT_FALSE(outcome.allCompleted());
    EXPECT_TRUE(outcome.report.drain_requested);
    for (const CampaignJobOutcome &job : outcome.jobs)
        EXPECT_EQ(job.state, CampaignJobState::Drained);
    EXPECT_EQ(outcome.report.drained, jobs.size());
}

// ---- durability + fsck -------------------------------------------------

TEST(Campaign, ShardsAndMergedJournalPassFsck)
{
    const std::vector<SimJob> jobs = buildJobs();
    TempBase tmp("fsck");
    ProcFaultSpec kill;
    kill.kind = ProcFaultKind::KillWorkerMidJob;
    kill.job_index = 1;
    kill.attempts = 1;

    CampaignOptions opts = fastOptions();
    opts.workers = 2;
    opts.journal_base = tmp.base();
    opts.faults = ProcFaultPlan({kill});
    CampaignEngine engine(opts);
    const CampaignOutcome outcome = engine.run(jobs);
    ASSERT_TRUE(outcome.allCompleted());

    std::uint64_t shard_keys = 0;
    for (int slot = 0; slot < 2; ++slot) {
        const JournalFsckReport report =
            fsckJournal(CampaignEngine::shardPath(tmp.base(), slot));
        EXPECT_TRUE(report.clean()) << report.path;
        EXPECT_EQ(report.torn_bytes, 0u);
        shard_keys += report.distinct_keys;
    }
    const JournalFsckReport merged =
        fsckJournal(CampaignEngine::mergedPath(tmp.base()));
    EXPECT_TRUE(merged.clean());
    // 5 jobs, one duplicate pair -> 4 distinct keys everywhere.
    EXPECT_EQ(merged.distinct_keys, 4u);
    EXPECT_EQ(merged.ok_records, 4u);
    EXPECT_EQ(shard_keys, 4u);
}

TEST(Campaign, ResumeServesFromJournalWithoutDispatch)
{
    const std::vector<SimJob> jobs = buildJobs();
    TempBase tmp("resume");
    CampaignOptions opts = fastOptions();
    opts.workers = 2;
    opts.journal_base = tmp.base();
    std::vector<std::vector<std::uint8_t>> first_merged;
    {
        CampaignEngine engine(opts);
        const CampaignOutcome outcome = engine.run(jobs);
        ASSERT_TRUE(outcome.allCompleted());
    }
    const auto merged_bytes =
        slurp(CampaignEngine::mergedPath(tmp.base()));
    ASSERT_FALSE(merged_bytes.empty());
    {
        // Second run over the same base: everything is a journal
        // hit, nothing is dispatched, and the merged journal is
        // rewritten byte-identically.
        CampaignEngine engine(opts);
        const CampaignOutcome outcome = engine.run(jobs);
        ASSERT_TRUE(outcome.allCompleted());
        EXPECT_EQ(outcome.report.dispatched, 0u);
        EXPECT_EQ(outcome.report.journal_hits, jobs.size());
        EXPECT_EQ(encodeOutcome(outcome), groundTruth());
    }
    EXPECT_EQ(slurp(CampaignEngine::mergedPath(tmp.base())),
              merged_bytes);
}

TEST(Fsck, DetectsTornTailAsBenignAndBitFlipAsHard)
{
    TempBase tmp("fsckbits");
    const std::string path = tmp.base() + ".shard0";
    // Build a two-record journal by hand through ResultJournal.
    SweepEngine engine(1);
    const std::vector<SimJob> jobs = buildJobs();
    const SimResult r0 = engine.run(jobs[0]);
    const SimResult r1 = engine.run(jobs[1]);
    {
        ResultJournal journal;
        journal.open(path);
        journal.append(jobs[0].key(), r0);
        journal.append(jobs[1].key(), r1);
    }
    const std::vector<std::uint8_t> intact = slurp(path);
    ASSERT_GT(intact.size(), 40u);

    // Torn tail: cut the second record short. Benign.
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(intact.data()),
                  static_cast<std::streamsize>(intact.size() - 11));
    }
    JournalFsckReport report = fsckJournal(path);
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.ok_records, 1u);
    EXPECT_GT(report.torn_bytes, 0u);
    ASSERT_EQ(report.records.size(), 2u);
    EXPECT_EQ(report.records[1].status, JournalRecordStatus::Torn);

    // Bit flip inside the FIRST record's payload: hard corruption.
    {
        std::vector<std::uint8_t> bad = intact;
        bad[30] ^= 0x01u; // inside record 0's payload
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bad.data()),
                  static_cast<std::streamsize>(bad.size()));
    }
    report = fsckJournal(path);
    EXPECT_FALSE(report.clean());
    ASSERT_FALSE(report.records.empty());
    EXPECT_EQ(report.records[0].status, JournalRecordStatus::BadCrc);

    // A file that is not a journal at all: bad magic, hard.
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "definitely not a journal, long enough to have a "
               "full header worth of bytes";
    }
    report = fsckJournal(path);
    EXPECT_FALSE(report.clean());
    ASSERT_FALSE(report.records.empty());
    EXPECT_EQ(report.records[0].status,
              JournalRecordStatus::BadMagic);
}

// ---- stateless workers -------------------------------------------------

/** The next frame a worker sends that is not a heartbeat. */
Frame
nextReply(int fd)
{
    Frame frame;
    while (readFrameBlocking(fd, frame) == WireStatus::Ok)
        if (frame.type != FrameType::Heartbeat)
            return frame;
    ADD_FAILURE() << "worker stream ended";
    return Frame{};
}

TEST(CampaignWorker, RunsTheDispatchedJobAndRefusesMismatches)
{
    const GpuConfig cfg = makeSmallConfig(2, 2);
    const SimJob a = SimJob::isolated(cfg, Cycle{2000}, findProfile("bp"));
    const SimJob b = SimJob::isolated(cfg, Cycle{2000}, findProfile("sv"));
    const std::vector<std::uint8_t> want =
        encodeSimResult(SweepEngine(1).run(a));

    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    WorkerConfig wc;
    wc.fd = sv[1];
    int status = -1;
    std::thread worker([&] { status = runCampaignWorker(wc); });

    const auto dispatch = [&](std::uint64_t key,
                              std::vector<std::uint8_t> payload) {
        Frame frame;
        frame.type = FrameType::Dispatch;
        frame.key = key;
        frame.payload = std::move(payload);
        EXPECT_TRUE(writeFrame(sv[0], frame));
        return nextReply(sv[0]);
    };
    const auto errorKind = [](const Frame &reply) {
        std::string kind;
        std::string detail;
        if (reply.type == FrameType::JobError)
            decodeJobError(reply.payload, kind, detail);
        return kind;
    };

    // Job A under job B's key is refused, not run.
    EXPECT_EQ(errorKind(dispatch(b.key(), encodeSimJob(a))), "Dispatch");

    // So is a payload that does not decode.
    std::vector<std::uint8_t> truncated = encodeSimJob(a);
    truncated.resize(truncated.size() / 2);
    EXPECT_EQ(errorKind(dispatch(a.key(), truncated)), "Dispatch");

    // A well-formed dispatch runs the job it carries.
    const Frame result = dispatch(a.key(), encodeSimJob(a));
    EXPECT_EQ(result.type, FrameType::Result);
    EXPECT_EQ(result.key, a.key());
    EXPECT_EQ(result.payload, want);

    Frame shutdown;
    shutdown.type = FrameType::Shutdown;
    EXPECT_TRUE(writeFrame(sv[0], shutdown));
    worker.join();
    EXPECT_EQ(status, 0);
    ::close(sv[0]);
    ::close(sv[1]);
}

// ---- campaign specs ----------------------------------------------------

TEST(CampaignSpec, NamedCampaignsBuildAndUnknownThrows)
{
    for (const std::string &name : namedCampaigns()) {
        const std::vector<SimJob> jobs =
            buildNamedCampaign(name, Cycle{1000});
        EXPECT_FALSE(jobs.empty()) << name;
        // Fingerprint is stable for a fixed spec.
        EXPECT_EQ(campaignFingerprint(jobs),
                  campaignFingerprint(
                      buildNamedCampaign(name, Cycle{1000})))
            << name;
    }
    EXPECT_THROW((void)buildNamedCampaign("nope", Cycle{1000}),
                 SimError);
}

} // namespace
} // namespace ckesim

/**
 * @file
 * Campaign service suite: a long-lived `campaignd --serve` daemon
 * must hand every client — one, or several concurrently, or one
 * that dies mid-stream, corrupts its frames, gets rejected under
 * overload, or comes back after the server is SIGKILLed — a result
 * table byte-identical to the in-process SweepEngine ground truth,
 * while never running a job twice (journal record counts prove it),
 * and the batch front end must agree with it on failed jobs too.
 *
 * The service runs in a forked child of the test binary (the real
 * poll loop, the real forked worker fleet); clients run in-process
 * through the library the CLI wraps.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "campaign/campaign_engine.hpp"
#include "campaign/campaign_spec.hpp"
#include "campaign/client.hpp"
#include "campaign/service.hpp"
#include "campaign/wire.hpp"
#include "metrics/journal.hpp"
#include "metrics/sweep_engine.hpp"
#include "sim/check.hpp"

namespace ckesim {
namespace {

constexpr const char *kCampaign = "smoke";
constexpr std::uint64_t kCycles = 2000;

/** Scratch paths (socket + journal) wiped on entry/exit. */
class TempBase
{
  public:
    explicit TempBase(const std::string &tag)
        : base_(std::string(::testing::TempDir()) +
                "ckesim_service_" + tag)
    {
        cleanup();
    }
    ~TempBase() { cleanup(); }
    std::string socket() const { return base_ + ".sock"; }
    std::string journal() const { return base_ + ".journal"; }

  private:
    void cleanup()
    {
        std::remove(journal().c_str());
        std::remove(socket().c_str());
    }
    std::string base_;
};

CampaignService *g_child_service = nullptr;

void
onChildTerm(int)
{
    if (g_child_service != nullptr)
        g_child_service->requestDrain();
}

/** The service under test, running in a forked child process. */
class ServiceProc
{
  public:
    ~ServiceProc()
    {
        if (pid_ > 0)
            (void)killHard();
        if (report_fd_ >= 0)
            ::close(report_fd_);
    }

    void start(const ServiceOptions &opts)
    {
        socket_path_ = opts.socket_path;
        int report_pipe[2];
        ASSERT_EQ(::pipe(report_pipe), 0);
        pid_ = ::fork();
        ASSERT_GE(pid_, 0) << "fork failed";
        if (pid_ == 0) {
            ::close(report_pipe[0]);
            int status = 2;
            try {
                CampaignService service(opts);
                g_child_service = &service;
                struct sigaction sa;
                std::memset(&sa, 0, sizeof sa);
                sa.sa_handler = onChildTerm;
                ::sigaction(SIGTERM, &sa, nullptr);
                const ServiceReport report = service.serve();
                if (::write(report_pipe[1], &report, sizeof report) ==
                    static_cast<ssize_t>(sizeof report))
                    status = 0;
            } catch (...) {
                status = 2;
            }
            ::_exit(status);
        }
        ::close(report_pipe[1]);
        report_fd_ = report_pipe[0];
        // The socket appearing means the listener is live.
        for (int i = 0; i < 500; ++i) {
            if (::access(socket_path_.c_str(), F_OK) == 0)
                return;
            ::usleep(10000);
        }
        FAIL() << "service socket never appeared";
    }

    /** SIGTERM drain; returns the child's exit status. */
    int stop()
    {
        if (pid_ <= 0)
            return -1;
        ::kill(pid_, SIGTERM);
        int status = 0;
        (void)::waitpid(pid_, &status, 0);
        pid_ = -1;
        if (::read(report_fd_, &report_, sizeof report_) !=
            static_cast<ssize_t>(sizeof report_))
            report_ = ServiceReport{};
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

    /** The drained service's lifetime report (after stop()). */
    const ServiceReport &report() const { return report_; }

    /** SIGKILL — the crash the --resume path must recover from. */
    int killHard()
    {
        if (pid_ <= 0)
            return -1;
        ::kill(pid_, SIGKILL);
        int status = 0;
        (void)::waitpid(pid_, &status, 0);
        pid_ = -1;
        return 0;
    }

  private:
    static_assert(std::is_trivially_copyable_v<ServiceReport>,
                  "the child sends its report through a pipe");

    pid_t pid_ = -1;
    int report_fd_ = -1; ///< read end of the child's report pipe
    ServiceReport report_;
    std::string socket_path_;
};

ServiceOptions
fastService(const TempBase &tmp)
{
    ServiceOptions opts;
    opts.socket_path = tmp.socket();
    opts.journal_base = tmp.journal();
    opts.workers = 2;
    opts.heartbeat_ms = 5;
    opts.liveness_deadline_ms = 20000;
    return opts;
}

ClientOptions
fastClient(const TempBase &tmp)
{
    ClientOptions opts;
    opts.socket_path = tmp.socket();
    opts.ref.name = kCampaign;
    opts.ref.cycles = kCycles;
    opts.timeout_ms = 120000;
    opts.backoff_ms = 20;
    return opts;
}

/** The table every path must reproduce byte-for-byte. */
const std::string &
groundTruthTable()
{
    static const std::string want = [] {
        const std::vector<SimJob> jobs =
            buildNamedCampaign(kCampaign, Cycle{kCycles});
        SweepEngine engine(1);
        std::vector<CampaignJobOutcome> outcomes;
        for (const SimJob &job : jobs) {
            CampaignJobOutcome o;
            o.state = CampaignJobState::Completed;
            o.result = engine.run(job);
            outcomes.push_back(std::move(o));
        }
        return formatCampaignTable(kCampaign, kCycles, jobs,
                                   outcomes);
    }();
    return want;
}

std::string
clientTable(const ClientOutcome &outcome, const ClientOptions &opts)
{
    return formatCampaignTable(opts.ref.name, opts.ref.cycles,
                               outcome.jobs, outcome.outcomes);
}

/** Records and distinct keys of the service's one journal — "no job
 *  ran twice" is records == distinct. */
void
countJournalRecords(const std::string &path, std::uint64_t &records,
                    std::uint64_t &distinct)
{
    const JournalFsckReport report = fsckJournal(path);
    EXPECT_TRUE(report.clean()) << path << " is hard-corrupt";
    records = report.ok_records;
    distinct = report.distinct_keys;
}

/** Raw-socket client for protocol-level probes (Ping, bad refs). */
int
rawConnect(const std::string &path)
{
    struct sockaddr_un addr;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof addr.sun_path - 1);
    EXPECT_EQ(0, ::connect(
                     fd,
                     reinterpret_cast<struct sockaddr *>(&addr),
                     sizeof addr));
    return fd;
}

// ---- the contract: byte-identical tables --------------------------------

TEST(CampaignService, SingleClientMatchesInProcessGroundTruth)
{
    TempBase tmp("single");
    ServiceProc service;
    service.start(fastService(tmp));

    const ClientOptions copts = fastClient(tmp);
    const ClientOutcome outcome = runCampaignClient(copts);
    ASSERT_EQ(outcome.status, ClientStatus::Completed)
        << outcome.report.error;
    EXPECT_EQ(clientTable(outcome, copts), groundTruthTable());
    EXPECT_EQ(outcome.report.results, outcome.jobs.size());

    // The same campaign again: the finished jobs left the job table,
    // so the journal serves every one, as the record's bytes.
    const ClientOutcome again = runCampaignClient(copts);
    ASSERT_EQ(again.status, ClientStatus::Completed)
        << again.report.error;
    EXPECT_EQ(clientTable(again, copts), groundTruthTable());

    EXPECT_EQ(service.stop(), 0);
    const ServiceReport &report = service.report();
    EXPECT_EQ(report.journal_hits, again.jobs.size());
    EXPECT_EQ(report.dedupe_hits, 0u);
    EXPECT_EQ(report.jobs_held, 0u);

    // Every job ran exactly once, durably.
    std::uint64_t records = 0, distinct = 0;
    countJournalRecords(tmp.journal(), records, distinct);
    EXPECT_EQ(records, distinct);
    EXPECT_GT(records, 0u);
}

TEST(CampaignService, ConcurrentClientsAllByteIdentical)
{
    TempBase tmp("concurrent");
    ServiceProc service;
    service.start(fastService(tmp));

    const ClientOptions copts = fastClient(tmp);
    constexpr int kClients = 3;
    std::vector<ClientOutcome> outcomes(kClients);
    {
        std::vector<std::thread> threads;
        for (int i = 0; i < kClients; ++i)
            threads.emplace_back([&, i] {
                outcomes[static_cast<std::size_t>(i)] =
                    runCampaignClient(copts);
            });
        for (std::thread &t : threads)
            t.join();
    }
    for (const ClientOutcome &outcome : outcomes) {
        ASSERT_EQ(outcome.status, ClientStatus::Completed)
            << outcome.report.error;
        EXPECT_EQ(clientTable(outcome, copts), groundTruthTable());
    }

    EXPECT_EQ(service.stop(), 0);
    EXPECT_EQ(service.report().jobs_held, 0u);

    // Three identical submissions, every job dispatched once: the
    // journal must hold one record per distinct key, not three.
    std::uint64_t records = 0, distinct = 0;
    countJournalRecords(tmp.journal(), records, distinct);
    EXPECT_EQ(records, distinct);
}

// ---- chaos: client death mid-stream -------------------------------------

TEST(CampaignService, ClientDeathMidStreamOrphansNothing)
{
    TempBase tmp("drop");
    ServiceProc service;
    service.start(fastService(tmp));

    // First client dies abruptly after its first streamed result —
    // from the service's side, a crashed client.
    ClientOptions dying = fastClient(tmp);
    {
        ProcFaultSpec spec;
        spec.kind = ProcFaultKind::DropClientMidStream;
        spec.job_index = 1; // after 1 received result
        spec.budget = 1;
        dying.faults = ProcFaultPlan({spec});
    }
    const ClientOutcome dropped = runCampaignClient(dying);
    EXPECT_EQ(dropped.status, ClientStatus::ConnectionLost);
    EXPECT_GE(dropped.report.results, 1u);

    // The orphaned jobs must keep running into the journal, so a
    // second client's idempotent resubmission completes — and the
    // table is still byte-identical to ground truth.
    const ClientOptions copts = fastClient(tmp);
    const ClientOutcome retry = runCampaignClient(copts);
    ASSERT_EQ(retry.status, ClientStatus::Completed)
        << retry.report.error;
    EXPECT_EQ(clientTable(retry, copts), groundTruthTable());

    EXPECT_EQ(service.stop(), 0);
    EXPECT_EQ(service.report().jobs_held, 0u);

    // The disconnect caused zero re-runs: one record per key.
    std::uint64_t records = 0, distinct = 0;
    countJournalRecords(tmp.journal(), records, distinct);
    EXPECT_EQ(records, distinct);
}

// ---- chaos: corrupt client frames ---------------------------------------

TEST(CampaignService, CorruptClientDroppedOthersKeepStreaming)
{
    TempBase tmp("corrupt");
    ServiceProc service;
    service.start(fastService(tmp));

    // Corrupted submission, no retries: the service must drop this
    // client (it can only observe EOF).
    ClientOptions corrupt = fastClient(tmp);
    corrupt.retries = 0;
    corrupt.timeout_ms = 5000;
    {
        ProcFaultSpec spec;
        spec.kind = ProcFaultKind::CorruptClientFrame;
        spec.budget = 1;
        corrupt.faults = ProcFaultPlan({spec});
    }
    const ClientOutcome refused = runCampaignClient(corrupt);
    EXPECT_EQ(refused.status, ClientStatus::ConnectionLost);

    // A clean client on the same service is untouched by the other
    // stream's corruption.
    const ClientOptions copts = fastClient(tmp);
    const ClientOutcome clean = runCampaignClient(copts);
    ASSERT_EQ(clean.status, ClientStatus::Completed)
        << clean.report.error;
    EXPECT_EQ(clientTable(clean, copts), groundTruthTable());

    // And a corrupt-then-retry client recovers by itself: the retry
    // reconnects with a clean stream.
    ClientOptions retrying = fastClient(tmp);
    retrying.retries = 1;
    {
        ProcFaultSpec spec;
        spec.kind = ProcFaultKind::CorruptClientFrame;
        spec.budget = 1;
        retrying.faults = ProcFaultPlan({spec});
    }
    const ClientOutcome recovered = runCampaignClient(retrying);
    ASSERT_EQ(recovered.status, ClientStatus::Completed)
        << recovered.report.error;
    EXPECT_EQ(clientTable(recovered, copts), groundTruthTable());
    EXPECT_EQ(recovered.report.attempts, 2);

    EXPECT_EQ(service.stop(), 0);
}

// ---- admission control ---------------------------------------------------

TEST(CampaignService, OverloadRejectsWithRetryHint)
{
    TempBase tmp("overload");
    ServiceOptions sopts = fastService(tmp);
    sopts.journal_base.clear(); // keep the queue the only dedupe
    sopts.max_pending_jobs = 1; // any real campaign overflows
    ServiceProc service;
    service.start(sopts);

    ClientOptions copts = fastClient(tmp);
    copts.retries = 0;
    const ClientOutcome rejected = runCampaignClient(copts);
    EXPECT_EQ(rejected.status, ClientStatus::Rejected);
    EXPECT_EQ(rejected.report.rejects, 1u);
    EXPECT_NE(rejected.report.error.find("queue full"),
              std::string::npos)
        << rejected.report.error;

    EXPECT_EQ(service.stop(), 0);
}

TEST(CampaignService, UnknownCampaignRejectedPermanently)
{
    TempBase tmp("unknown");
    ServiceOptions sopts = fastService(tmp);
    sopts.journal_base.clear();
    ServiceProc service;
    service.start(sopts);

    // The library refuses to build an unknown ref itself, so probe
    // the service's own validation with a raw SubmitCampaign.
    const int fd = rawConnect(tmp.socket());
    CampaignRef bogus;
    bogus.name = "no-such-campaign";
    bogus.cycles = 1000;
    Frame submit;
    submit.type = FrameType::SubmitCampaign;
    submit.payload = encodeCampaignRef(bogus);
    ASSERT_TRUE(writeFrame(fd, submit));

    Frame reply;
    ASSERT_EQ(readFrameBlocking(fd, reply), WireStatus::Ok);
    ASSERT_EQ(reply.type, FrameType::Reject);
    const RejectInfo info = decodeReject(reply.payload);
    EXPECT_EQ(info.retry_after_ms, 0u)
        << "unknown campaign must not suggest retrying";
    EXPECT_NE(info.reason.find("no-such-campaign"),
              std::string::npos);
    ::close(fd);

    EXPECT_EQ(service.stop(), 0);
}

TEST(CampaignService, PingPongEchoesAndKeepsConnectionAlive)
{
    TempBase tmp("ping");
    ServiceOptions sopts = fastService(tmp);
    sopts.journal_base.clear();
    ServiceProc service;
    service.start(sopts);

    const int fd = rawConnect(tmp.socket());
    Frame ping;
    ping.type = FrameType::Ping;
    ping.job_index = 7;
    ping.aux = 11;
    ping.key = 0xdeadbeefcafef00dULL;
    ASSERT_TRUE(writeFrame(fd, ping));
    Frame pong;
    ASSERT_EQ(readFrameBlocking(fd, pong), WireStatus::Ok);
    EXPECT_EQ(pong.type, FrameType::Pong);
    EXPECT_EQ(pong.job_index, ping.job_index);
    EXPECT_EQ(pong.aux, ping.aux);
    EXPECT_EQ(pong.key, ping.key);
    ::close(fd);

    EXPECT_EQ(service.stop(), 0);
}

// ---- crash recovery ------------------------------------------------------

TEST(CampaignService, SigkillThenResumeReplaysInsteadOfRerunning)
{
    TempBase tmp("resume");
    ServiceProc service;
    service.start(fastService(tmp));

    // Run one full campaign so the journal holds every result, then
    // SIGKILL the service — the crash --resume must recover from.
    const ClientOptions copts = fastClient(tmp);
    const ClientOutcome first = runCampaignClient(copts);
    ASSERT_EQ(first.status, ClientStatus::Completed)
        << first.report.error;
    service.killHard();

    std::uint64_t records_before = 0, distinct_before = 0;
    countJournalRecords(tmp.journal(), records_before,
                        distinct_before);
    ASSERT_GT(records_before, 0u);

    ServiceOptions resumed = fastService(tmp);
    resumed.resume = true;
    ServiceProc service2;
    service2.start(resumed);

    const ClientOutcome replayed = runCampaignClient(copts);
    ASSERT_EQ(replayed.status, ClientStatus::Completed)
        << replayed.report.error;
    EXPECT_EQ(clientTable(replayed, copts), groundTruthTable());
    // Everything came back from the journal — nothing re-ran.
    EXPECT_EQ(replayed.report.replayed, replayed.jobs.size());

    EXPECT_EQ(service2.stop(), 0);

    std::uint64_t records_after = 0, distinct_after = 0;
    countJournalRecords(tmp.journal(), records_after,
                        distinct_after);
    EXPECT_EQ(records_after, records_before)
        << "resume must not append duplicate records";
    EXPECT_EQ(distinct_after, distinct_before);
}

// ---- one failure matrix for both front ends ------------------------------

TEST(CampaignService, BatchAndClientTablesAgreeOnFailedJobs)
{
    struct Case
    {
        const char *name;
        int poison_worker_deaths;
        int max_dispatch_attempts;
        CampaignJobState state;
        const char *kind;
    };
    const Case cases[] = {
        {"poison", 2, 4, CampaignJobState::Poisoned, "Poisoned"},
        {"exhausted", 1000, 2, CampaignJobState::Exhausted, "Exhausted"},
    };
    const std::vector<SimJob> jobs =
        buildNamedCampaign(kCampaign, Cycle{kCycles});
    std::vector<CampaignJobOutcome> truth;
    {
        SweepEngine engine(1);
        for (const SimJob &job : jobs) {
            CampaignJobOutcome o;
            o.state = CampaignJobState::Completed;
            o.result = engine.run(job);
            truth.push_back(std::move(o));
        }
    }
    // Every worker that runs job 2 dies, on every attempt.
    ProcFaultSpec kill;
    kill.kind = ProcFaultKind::KillWorkerMidJob;
    kill.job_index = 2;
    kill.attempts = 1000;

    for (const Case &c : cases) {
        std::vector<CampaignJobOutcome> want = truth;
        want[2] = CampaignJobOutcome{};
        want[2].state = c.state;
        want[2].error_kind = c.kind;
        const std::string want_table =
            formatCampaignTable(kCampaign, kCycles, jobs, want);

        CampaignOptions batch_opts;
        batch_opts.workers = 2;
        batch_opts.heartbeat_ms = 5;
        batch_opts.poison_worker_deaths = c.poison_worker_deaths;
        batch_opts.max_dispatch_attempts = c.max_dispatch_attempts;
        batch_opts.faults = ProcFaultPlan({kill});
        const CampaignOutcome batch = CampaignEngine(batch_opts).run(jobs);
        EXPECT_EQ(formatCampaignTable(kCampaign, kCycles, jobs, batch.jobs),
                  want_table)
            << c.name;

        TempBase tmp(std::string("matrix_") + c.name);
        ServiceOptions sopts = fastService(tmp);
        sopts.poison_worker_deaths = c.poison_worker_deaths;
        sopts.max_dispatch_attempts = c.max_dispatch_attempts;
        sopts.faults = ProcFaultPlan({kill});
        ServiceProc service;
        service.start(sopts);
        const ClientOptions copts = fastClient(tmp);
        const ClientOutcome client = runCampaignClient(copts);
        EXPECT_EQ(client.status, ClientStatus::JobFailures)
            << c.name << ": " << client.report.error;
        EXPECT_EQ(clientTable(client, copts), want_table) << c.name;
        EXPECT_EQ(service.stop(), 0);
    }
}

// ---- drain ---------------------------------------------------------------

TEST(CampaignService, SigtermDrainsCleanlyAndUnlinksSocket)
{
    TempBase tmp("drain");
    ServiceOptions sopts = fastService(tmp);
    sopts.journal_base.clear();
    ServiceProc service;
    service.start(sopts);

    EXPECT_EQ(service.stop(), 0);
    EXPECT_NE(::access(tmp.socket().c_str(), F_OK), 0)
        << "drained service must unlink its socket";
}

} // namespace
} // namespace ckesim

#include "campaign/service.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "campaign/campaign_spec.hpp"
#include "campaign/wire.hpp"
#include "campaign/worker.hpp"
#include "metrics/journal.hpp"
#include "metrics/sweep_engine.hpp"
#include "sim/check.hpp"

namespace ckesim {

namespace {

using Clock = std::chrono::steady_clock; // SIMCHECK-ALLOW(determinism-hazard): host-side liveness/idle timing, never simulated state
using Millis = std::chrono::milliseconds;

/** Worker respawns per loop lifetime. Once they are spent a dead
 *  worker stays dead, and with none left jobs run in-process. */
constexpr int kMaxWorkerRespawns = 64;

/** Retry-after hint attached to overload Rejects. */
constexpr std::uint64_t kRejectRetryMs = 200;

/** Largest shard slot replayed beyond the current worker count, so
 *  shrinking the fleet never hides a durable result. */
constexpr int kMaxShards = 256;

/** How long Shutdown waits for workers to exit before SIGKILL. */
constexpr Millis kShutdownGrace{2000};

[[noreturn]] void
raiseService(const std::string &detail)
{
    SimCtx ctx;
    ctx.module = "campaign.service";
    raiseSimError("Service", ctx, detail);
}

/** Where one deduped job stands. */
enum class JobPhase : std::uint8_t {
    Queued = 0, ///< waiting for a worker or an in-process turn
    Dispatched, ///< running on a worker
    Done,       ///< outcome is terminal
};

/** One (campaign, job index) waiting on a job's terminal state. */
struct Subscriber
{
    std::uint64_t campaign_id = 0;
    std::uint32_t index = 0;
};

/**
 * One content-hash-deduped job. Every submission naming this key —
 * from any client, in any campaign — subscribes here; the job runs
 * at most once per loop lifetime and at most once per journal
 * history.
 */
struct JobEntry
{
    JobPhase phase = JobPhase::Queued;
    int deaths = 0;             ///< workers lost while running it
    CampaignJobOutcome outcome; ///< attempts so far; the rest at Done
    /** Live subscriptions. Until Done the first is the submission
     *  that named the key first: the job is read from it, and fault
     *  plans address its index. */
    std::vector<Subscriber> subs;
};

/** One admitted submission. */
struct Campaign
{
    int client_fd = -1; ///< -1 = orphaned, or the in-process one
    std::vector<SimJob> jobs;
    /** The in-process submission's per-index outcomes; null for a
     *  client, which is sent frames instead. */
    std::vector<CampaignJobOutcome> *outcomes = nullptr;
    std::uint64_t resolved = 0;  ///< jobs at a terminal state
    std::uint64_t completed = 0; ///< jobs that produced a result
};

/** One client connection. */
struct Client
{
    int fd = -1;
    FrameParser parser;
    Clock::time_point last_activity{};
    std::vector<std::uint64_t> campaigns; ///< in-flight submissions
};

/** One worker slot of the fleet. */
struct WorkerSlot
{
    pid_t pid = -1;
    int fd = -1;
    bool alive = false;
    bool busy = false;
    std::uint64_t busy_key = 0;
    FrameParser parser;
    Clock::time_point last_beat{};
};

/**
 * The one fleet supervisor, for both front ends: the daemon's socket
 * clients and CampaignEngine's in-process submission. One instance
 * per serve() or run() call; the destructor shuts the fleet down and
 * closes every socket.
 */
class Fleet
{
  public:
    Fleet(const ServiceOptions &opts, const std::atomic<bool> &drain);
    ~Fleet();

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    void bindSocket();
    void openJournals();
    void startFleet();

    /** Admit @p jobs as the in-process submission, whose per-index
     *  outcomes land in @p outcomes. Admitted past every bound, even
     *  while draining; the loop drains once it is done. */
    void submitInProcess(const std::vector<SimJob> &jobs,
                         std::vector<CampaignJobOutcome> &outcomes);

    /** Jobs wait to run. */
    bool queued() const { return !queue_.empty(); }

    /** Run the poll loop until a drain completes. */
    ServiceReport run();

  private:
    // ---- fleet -----------------------------------------------------------
    bool spawnWorker(int slot, bool respawn);
    void workerLost(int slot, const char *why);
    void checkLiveness(Clock::time_point now);
    void handleWorkerInput(int slot);
    void handleWorkerFrame(int slot, const Frame &frame);
    void pumpDispatch();
    bool fleetGone() const;
    void runOneInProcess();
    void shutdownFleet();

    // ---- jobs ------------------------------------------------------------
    void admit(std::uint64_t campaign_id);
    const SimJob &jobOf(const Subscriber &sub) const;
    bool findInJournals(std::uint64_t key, SimResult &out) const;
    void reclaimJob(std::uint64_t key);
    void completeJob(std::uint64_t key, const SimResult &result,
                     int slot);
    void failJob(std::uint64_t key, CampaignJobState state,
                 const std::string &kind, const std::string &detail);
    void publish(std::uint64_t key, JobEntry &entry);
    void notify(const Subscriber &sub, std::uint64_t key,
                const JobEntry &entry, bool replay);
    void resolveOne(std::uint64_t campaign_id, bool completed);

    // ---- clients ---------------------------------------------------------
    void acceptClients();
    void handleClientInput(int fd);
    void handleClientFrame(int fd, const Frame &frame);
    void handleSubmit(int fd, const Frame &frame);
    void rejectSubmit(int fd, const std::string &reason,
                      std::uint64_t retry_after_ms);
    void dropClient(int fd, const char *why);
    void checkClientIdle(Clock::time_point now);
    bool sendToCampaign(std::uint64_t campaign_id, const Frame &frame);

    // ---- drain -----------------------------------------------------------
    bool submissionDone() const;
    void drainQueue();
    bool drained() const;

    ServiceOptions opts_;
    const std::atomic<bool> &drain_flag_;
    bool draining_ = false;

    int listen_fd_ = -1;
    std::vector<WorkerSlot> slots_;
    int respawns_left_ = kMaxWorkerRespawns;
    ProcFaultPlan spawn_faults_; ///< the loop's own FailSpawn budget
    std::unique_ptr<SweepEngine> inproc_; ///< made once no worker is left

    // std::map keeps every fan-out and drain sweep in deterministic
    // order — the frame stream a client sees must not depend on hash
    // layout.
    std::map<int, Client> clients_;
    std::map<std::uint64_t, Campaign> campaigns_;
    std::map<std::uint64_t, JobEntry> jobs_;
    std::deque<std::uint64_t> queue_; ///< Queued keys, FIFO
    std::uint64_t next_campaign_id_ = 1;
    std::uint64_t inproc_id_ = 0; ///< the in-process submission, if any

    /** The first opts_.workers journals take appends, one per worker
     *  slot; the rest are replayed only. */
    std::vector<std::unique_ptr<ResultJournal>> journals_;

    ServiceReport report_;
};

Fleet::Fleet(const ServiceOptions &opts, const std::atomic<bool> &drain)
    : opts_(opts), drain_flag_(drain), spawn_faults_(opts.faults)
{
    opts_.workers = std::max(opts_.workers, 1);
    opts_.max_dispatch_attempts = std::max(opts_.max_dispatch_attempts, 1);
    opts_.poison_worker_deaths = std::max(opts_.poison_worker_deaths, 1);
    for (const ProcFaultSpec &spec : opts_.faults.specs())
        validateProcFaultSpec(spec);
}

Fleet::~Fleet()
{
    shutdownFleet();
    for (const auto &entry : clients_)
        ::close(entry.first);
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        (void)::unlink(opts_.socket_path.c_str());
    }
}

// ---- setup / teardown ----------------------------------------------------

void
Fleet::bindSocket()
{
    struct sockaddr_un addr;
    if (opts_.socket_path.empty() ||
        opts_.socket_path.size() >= sizeof addr.sun_path)
        raiseService("socket path empty or longer than " +
                     std::to_string(sizeof addr.sun_path - 1) +
                     " bytes: '" + opts_.socket_path + "'");

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
        raiseService(std::string("socket(): ") +
                     std::strerror(errno));
    // A stale socket file from a killed predecessor must not block
    // the rebind; --resume recovery depends on it.
    (void)::unlink(opts_.socket_path.c_str());

    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opts_.socket_path.c_str(),
                 sizeof addr.sun_path - 1);
    if (::bind(listen_fd_,
               reinterpret_cast<struct sockaddr *>(&addr),
               sizeof addr) != 0)
        raiseService("bind('" + opts_.socket_path +
                     "'): " + std::strerror(errno));
    if (::listen(listen_fd_, 16) != 0)
        raiseService(std::string("listen(): ") +
                     std::strerror(errno));
    const int flags = ::fcntl(listen_fd_, F_GETFL, 0);
    (void)::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK);
}

void
Fleet::openJournals()
{
    const std::string &base = opts_.journal_base;
    if (base.empty())
        return;
    if (!opts_.resume)
        CampaignEngine::removeJournal(base);
    // Every shard a previous (possibly larger) fleet left, and a
    // merged journal, is replayed too, so no durable result is
    // invisible.
    std::vector<std::string> paths;
    for (int slot = 0; slot < kMaxShards; ++slot) {
        const std::string path = CampaignEngine::shardPath(base, slot);
        if (slot >= opts_.workers && ::access(path.c_str(), F_OK) != 0)
            break;
        paths.push_back(path);
    }
    const std::string merged = CampaignEngine::mergedPath(base);
    if (::access(merged.c_str(), F_OK) == 0)
        paths.push_back(merged);
    for (const std::string &path : paths) {
        journals_.push_back(std::make_unique<ResultJournal>());
        journals_.back()->open(path);
    }
}

void
Fleet::startFleet()
{
    slots_.resize(static_cast<std::size_t>(opts_.workers));
    for (int slot = 0; slot < opts_.workers; ++slot)
        (void)spawnWorker(slot, false);
}

void
Fleet::shutdownFleet()
{
    Frame bye;
    bye.type = FrameType::Shutdown;
    for (const WorkerSlot &ws : slots_)
        if (ws.alive)
            (void)writeFrame(ws.fd, bye);
    // Grace period, then force.
    const auto deadline = Clock::now() + kShutdownGrace;
    for (WorkerSlot &ws : slots_) {
        if (!ws.alive)
            continue;
        for (;;) {
            int status = 0;
            const pid_t got = ::waitpid(ws.pid, &status, WNOHANG);
            if (got == ws.pid || got < 0)
                break;
            if (Clock::now() >= deadline) {
                ::kill(ws.pid, SIGKILL);
                (void)::waitpid(ws.pid, &status, 0);
                break;
            }
            struct timespec ts = {0, 5 * 1000 * 1000};
            ::nanosleep(&ts, nullptr);
        }
        ::close(ws.fd);
        ws = WorkerSlot{};
    }
}

// ---- fleet ---------------------------------------------------------------

bool
Fleet::spawnWorker(int slot, bool respawn)
{
    if (spawn_faults_.fire(ProcFaultKind::FailSpawn, slot, -1,
                           respawn ? 1 : 0))
        return false;
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
        return false;
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(sv[0]);
        ::close(sv[1]);
        return false;
    }
    if (pid == 0) {
        // Child: drop every loop-side fd (listen socket, client
        // connections, sibling workers), serve the socket, and leave
        // without running atexit machinery.
        ::close(sv[0]);
        if (listen_fd_ >= 0)
            ::close(listen_fd_);
        for (const auto &entry : clients_)
            ::close(entry.first);
        for (const WorkerSlot &other : slots_)
            if (other.alive)
                ::close(other.fd);
        ::signal(SIGTERM, SIG_DFL);
        ::signal(SIGINT, SIG_DFL);
        WorkerConfig wc;
        wc.fd = sv[1];
        wc.worker_index = slot;
        wc.heartbeat_ms = opts_.heartbeat_ms;
        wc.faults = opts_.faults;
        int status = 1;
        try {
            status = runCampaignWorker(wc);
        } catch (...) {
            status = 1;
        }
        ::_exit(status);
    }
    ::close(sv[1]);
    const int flags = ::fcntl(sv[0], F_GETFL, 0);
    (void)::fcntl(sv[0], F_SETFL, flags | O_NONBLOCK);

    WorkerSlot &ws = slots_[static_cast<std::size_t>(slot)];
    ws = WorkerSlot{};
    ws.pid = pid;
    ws.fd = sv[0];
    ws.alive = true;
    ws.last_beat = Clock::now(); // fleet liveness timing
    if (respawn)
        ++report_.workers_respawned;
    return true;
}

void
Fleet::workerLost(int slot, const char *why)
{
    WorkerSlot &ws = slots_[static_cast<std::size_t>(slot)];
    std::fprintf(stderr, "campaignd: worker %d died (%s)\n", slot,
                 why);
    ++report_.worker_deaths;
    ::kill(ws.pid, SIGKILL);
    int status = 0;
    (void)::waitpid(ws.pid, &status, 0);
    ::close(ws.fd);
    const bool was_busy = ws.busy;
    const std::uint64_t key = ws.busy_key;
    ws = WorkerSlot{};

    if (was_busy)
        reclaimJob(key);
    // Nothing new runs while draining, so a lost worker stays lost.
    if (!draining_ && respawns_left_ > 0) {
        --respawns_left_;
        (void)spawnWorker(slot, true);
    }
}

void
Fleet::checkLiveness(Clock::time_point now)
{
    for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
        const WorkerSlot &ws = slots_[slot];
        if (ws.alive && ws.busy &&
            now - ws.last_beat > Millis(opts_.liveness_deadline_ms)) {
            ++report_.hung_workers_killed;
            workerLost(static_cast<int>(slot), "liveness deadline");
        }
    }
}

void
Fleet::handleWorkerInput(int slot)
{
    WorkerSlot &ws = slots_[static_cast<std::size_t>(slot)];
    std::uint8_t buf[65536];
    for (;;) {
        const ssize_t n = ::recv(ws.fd, buf, sizeof buf, 0);
        if (n > 0) {
            ws.parser.feed(buf, static_cast<std::size_t>(n));
            if (static_cast<std::size_t>(n) < sizeof buf)
                break;
            continue;
        }
        if (n == 0) {
            workerLost(slot, "socket closed");
            return;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        workerLost(slot, "read error");
        return;
    }
    Frame frame;
    while (ws.alive && ws.parser.next(frame))
        handleWorkerFrame(slot, frame);
    if (ws.alive && ws.parser.corrupt()) {
        // A worker whose stream misaligned cannot be trusted with
        // anything it sends afterwards: kill and re-dispatch.
        ++report_.corrupt_frames;
        const std::string why = ws.parser.corruptReason();
        workerLost(slot, why.c_str());
    }
}

void
Fleet::handleWorkerFrame(int slot, const Frame &frame)
{
    WorkerSlot &ws = slots_[static_cast<std::size_t>(slot)];
    ws.last_beat = Clock::now(); // any frame proves liveness
    if (frame.type == FrameType::Heartbeat) {
        ++report_.heartbeats;
        return;
    }
    // Anything else must answer the job this worker owns, in a
    // payload that decodes.
    const bool result = frame.type == FrameType::Result;
    bool answers =
        (result || frame.type == FrameType::JobError) && ws.busy &&
        frame.key == ws.busy_key &&
        frame.job_index == jobs_.at(ws.busy_key).subs.front().index;
    SimResult value;
    std::string kind;
    std::string detail;
    try {
        if (answers && result)
            value = decodeSimResult(frame.payload);
        else if (answers)
            decodeJobError(frame.payload, kind, detail);
    } catch (const SimError &) {
        answers = false;
    }
    if (!answers) {
        ++report_.corrupt_frames;
        workerLost(slot, "unexpected frame");
        return;
    }
    const std::uint64_t key = ws.busy_key;
    ws.busy = false;
    ws.busy_key = 0;
    if (result)
        completeJob(key, value, slot);
    else
        failJob(key, CampaignJobState::Failed, kind, detail);
}

void
Fleet::pumpDispatch()
{
    for (std::size_t slot = 0;
         slot < slots_.size() && !queue_.empty(); ++slot) {
        WorkerSlot &ws = slots_[slot];
        if (!ws.alive || ws.busy)
            continue;
        const std::uint64_t key = queue_.front();
        JobEntry &entry = jobs_.at(key);
        const Subscriber &first = entry.subs.front();

        Frame dispatch;
        dispatch.type = FrameType::Dispatch;
        dispatch.job_index = first.index;
        dispatch.aux = static_cast<std::uint32_t>(entry.outcome.attempts);
        dispatch.key = key;
        dispatch.payload = encodeSimJob(jobOf(first));
        if (!writeFrame(ws.fd, dispatch)) {
            // It never reached the worker, so it stays queued.
            workerLost(static_cast<int>(slot), "dispatch failed");
            continue;
        }
        queue_.pop_front();
        entry.phase = JobPhase::Dispatched;
        ++entry.outcome.attempts;
        ws.busy = true;
        ws.busy_key = key;
        ws.last_beat = Clock::now(); // dispatch restarts the clock
        ++report_.dispatched;
        if (entry.outcome.attempts > 1)
            ++report_.redispatched;
    }
}

bool
Fleet::fleetGone() const
{
    return std::none_of(slots_.begin(), slots_.end(),
                        [](const WorkerSlot &ws) { return ws.alive; });
}

void
Fleet::runOneInProcess()
{
    // No worker is alive and none can be respawned: run the next job
    // here, one per loop turn, so clients are still served between
    // jobs.
    if (!inproc_) {
        inproc_ = std::make_unique<SweepEngine>(1);
        report_.degraded_in_process = true;
    }
    const std::uint64_t key = queue_.front();
    queue_.pop_front();
    JobEntry &entry = jobs_.at(key);
    ++entry.outcome.attempts;
    SimResult result;
    try {
        result = inproc_->run(jobOf(entry.subs.front()));
    } catch (const SimError &e) {
        failJob(key, CampaignJobState::Failed, e.kind(), e.what());
        return;
    }
    completeJob(key, result, 0);
}

// ---- jobs ----------------------------------------------------------------

void
Fleet::admit(std::uint64_t campaign_id)
{
    // Resolve every index: replay what is known, subscribe to what is
    // live, queue what is new. The count is taken once, because
    // resolving the last index erases the campaign.
    const std::size_t count = campaigns_.at(campaign_id).jobs.size();
    for (std::size_t i = 0; i < count; ++i) {
        const auto me = campaigns_.find(campaign_id);
        if (me == campaigns_.end())
            return;
        const std::uint64_t key = me->second.jobs[i].key();
        const Subscriber sub{campaign_id, static_cast<std::uint32_t>(i)};
        auto [it, fresh] = jobs_.try_emplace(key);
        JobEntry &entry = it->second;
        if (!fresh) {
            ++report_.dedupe_hits;
            if (entry.phase == JobPhase::Done)
                notify(sub, key, entry, true);
            else
                entry.subs.push_back(sub);
            continue;
        }
        SimResult replayed;
        if (findInJournals(key, replayed)) {
            entry.phase = JobPhase::Done;
            entry.outcome.state = CampaignJobState::Completed;
            entry.outcome.result = std::move(replayed);
            entry.outcome.from_journal = true;
            ++report_.journal_hits;
            notify(sub, key, entry, true);
            continue;
        }
        entry.subs.push_back(sub);
        queue_.push_back(key);
    }
}

const SimJob &
Fleet::jobOf(const Subscriber &sub) const
{
    return campaigns_.at(sub.campaign_id).jobs[sub.index];
}

bool
Fleet::findInJournals(std::uint64_t key, SimResult &out) const
{
    for (const auto &journal : journals_)
        if (journal->find(key, out))
            return true;
    return false;
}

void
Fleet::reclaimJob(std::uint64_t key)
{
    JobEntry &entry = jobs_.at(key);
    const Subscriber &first = entry.subs.front();
    const std::string job = "job " + std::to_string(first.index) +
                            " (" + jobOf(first).describe() + ")";
    const int deaths = ++entry.deaths;
    if (deaths >= opts_.poison_worker_deaths) {
        failJob(key, CampaignJobState::Poisoned, "Poisoned",
                job + " killed " + std::to_string(deaths) +
                    " worker(s); quarantined instead of re-dispatched");
        return;
    }
    if (entry.outcome.attempts >= opts_.max_dispatch_attempts) {
        failJob(key, CampaignJobState::Exhausted, "Exhausted",
                job + " spent all " +
                    std::to_string(opts_.max_dispatch_attempts) +
                    " dispatch attempts without returning a result");
        return;
    }
    entry.phase = JobPhase::Queued;
    queue_.push_front(key); // reclaimed work goes first
}

void
Fleet::completeJob(std::uint64_t key, const SimResult &result, int slot)
{
    JobEntry &entry = jobs_.at(key);
    entry.phase = JobPhase::Done;
    entry.outcome.state = CampaignJobState::Completed;
    entry.outcome.result = result;
    // Durable before visible: a result is journaled (fsync'd) before
    // any subscriber hears about it, so a crash between the two
    // cannot strand a client with a result the resume cannot replay.
    // One append per key per journal history: only freshly computed
    // results land here, and a key runs at most once.
    if (!journals_.empty())
        journals_[static_cast<std::size_t>(slot)]->append(key, result);
    ++report_.jobs_completed;
    publish(key, entry);
}

void
Fleet::failJob(std::uint64_t key, CampaignJobState state,
               const std::string &kind, const std::string &detail)
{
    JobEntry &entry = jobs_.at(key);
    entry.phase = JobPhase::Done;
    entry.outcome.state = state;
    entry.outcome.error_kind = kind;
    entry.outcome.error_detail = detail;
    ++report_.jobs_failed;
    publish(key, entry);
}

void
Fleet::publish(std::uint64_t key, JobEntry &entry)
{
    const std::vector<Subscriber> subs = std::move(entry.subs);
    entry.subs.clear();
    for (const Subscriber &sub : subs)
        notify(sub, key, entry, false);
}

void
Fleet::notify(const Subscriber &sub, std::uint64_t key,
              const JobEntry &entry, bool replay)
{
    const auto it = campaigns_.find(sub.campaign_id);
    if (it == campaigns_.end())
        return;
    const CampaignJobOutcome &outcome = entry.outcome;
    if (it->second.outcomes != nullptr) {
        (*it->second.outcomes)[sub.index] = outcome;
    } else {
        Frame frame;
        frame.job_index = sub.index;
        frame.key = key;
        if (outcome.ok()) {
            frame.type = FrameType::JobResult;
            frame.aux = replay ? 1u : 0u;
            frame.payload = encodeSimResult(outcome.result);
        } else {
            frame.type = FrameType::JobFailed;
            frame.payload = encodeJobError(outcome.error_kind,
                                           outcome.error_detail);
        }
        (void)sendToCampaign(sub.campaign_id, frame);
    }
    resolveOne(sub.campaign_id, outcome.ok());
}

void
Fleet::resolveOne(std::uint64_t campaign_id, bool completed)
{
    auto it = campaigns_.find(campaign_id);
    if (it == campaigns_.end())
        return;
    Campaign &c = it->second;
    ++c.resolved;
    if (completed)
        ++c.completed;
    if (c.resolved < c.jobs.size())
        return;

    Frame done;
    done.type = FrameType::CampaignDone;
    done.aux = static_cast<std::uint32_t>(c.completed);
    done.key = campaignFingerprint(c.jobs);
    (void)sendToCampaign(campaign_id, done);
    ++report_.campaigns_done;

    auto cit = clients_.find(c.client_fd);
    if (cit != clients_.end()) {
        auto &list = cit->second.campaigns;
        list.erase(
            std::remove(list.begin(), list.end(), campaign_id),
            list.end());
    }
    campaigns_.erase(it);
}

void
Fleet::submitInProcess(const std::vector<SimJob> &jobs,
                       std::vector<CampaignJobOutcome> &outcomes)
{
    outcomes.assign(jobs.size(), CampaignJobOutcome{});
    inproc_id_ = next_campaign_id_++;
    if (jobs.empty())
        return; // nothing to wait for
    Campaign &c = campaigns_[inproc_id_];
    c.jobs = jobs;
    c.outcomes = &outcomes;
    ++report_.submissions;
    admit(inproc_id_);
}

// ---- clients -------------------------------------------------------------

void
Fleet::acceptClients()
{
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN or transient accept failure
        }
        const int flags = ::fcntl(fd, F_GETFL, 0);
        (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
        Client &client = clients_[fd];
        client.fd = fd;
        client.last_activity = Clock::now(); // idle-timeout basis
        ++report_.connections;
    }
}

void
Fleet::handleClientInput(int fd)
{
    auto it = clients_.find(fd);
    if (it == clients_.end())
        return;
    Client &client = it->second;
    client.last_activity = Clock::now(); // traffic refreshes idle

    std::uint8_t buf[65536];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n > 0) {
            client.parser.feed(buf, static_cast<std::size_t>(n));
            if (static_cast<std::size_t>(n) < sizeof buf)
                break;
            continue;
        }
        if (n == 0) {
            dropClient(fd, "disconnected");
            return;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        dropClient(fd, "read error");
        return;
    }
    Frame frame;
    while (clients_.count(fd) != 0 && client.parser.next(frame))
        handleClientFrame(fd, frame);
    if (clients_.count(fd) != 0 && client.parser.corrupt()) {
        // Sticky corruption poisons THIS stream only; every other
        // client keeps its connection.
        ++report_.client_corrupt;
        std::fprintf(stderr,
                     "campaignd: dropping corrupt client (%s)\n",
                     client.parser.corruptReason().c_str());
        dropClient(fd, "corrupt stream");
    }
}

void
Fleet::handleClientFrame(int fd, const Frame &frame)
{
    switch (frame.type) {
      case FrameType::SubmitCampaign:
        handleSubmit(fd, frame);
        return;
      case FrameType::Ping: {
        ++report_.pings;
        Frame pong;
        pong.type = FrameType::Pong;
        pong.job_index = frame.job_index;
        pong.aux = frame.aux;
        pong.key = frame.key;
        auto it = clients_.find(fd);
        if (it != clients_.end() &&
            !writeFrame(fd, pong))
            dropClient(fd, "pong failed");
        return;
      }
      default:
        return; // tolerate unknown-but-valid traffic
    }
}

void
Fleet::rejectSubmit(int fd, const std::string &reason,
                                    std::uint64_t retry_after_ms)
{
    ++report_.rejected;
    RejectInfo info;
    info.reason = reason;
    info.retry_after_ms = retry_after_ms;
    Frame frame;
    frame.type = FrameType::Reject;
    frame.payload = encodeReject(info);
    if (!writeFrame(fd, frame))
        dropClient(fd, "reject failed");
}

void
Fleet::handleSubmit(int fd, const Frame &frame)
{
    if (draining_) {
        rejectSubmit(fd, "service is draining", 0);
        return;
    }

    CampaignRef ref;
    std::vector<SimJob> built;
    try {
        ref = decodeCampaignRef(frame.payload);
        if (ref.cycles == 0)
            raiseService("submission cycles must be positive");
        built = buildNamedCampaign(ref.name, Cycle{ref.cycles});
    } catch (const SimError &e) {
        rejectSubmit(fd,
                     std::string("[") + e.kind() + "] " + e.what(),
                     0);
        return;
    }

    auto cit = clients_.find(fd);
    if (cit == clients_.end())
        return;
    if (cit->second.campaigns.size() >= opts_.max_client_campaigns) {
        rejectSubmit(fd,
                     "client already has " +
                         std::to_string(
                             cit->second.campaigns.size()) +
                         " campaigns in flight",
                     kRejectRetryMs);
        return;
    }

    // Admission: count the NEW work this submission would queue
    // (deduped and journal-served jobs are free).
    std::size_t new_jobs = 0;
    {
        SimResult scratch;
        std::vector<std::uint64_t> seen;
        for (const SimJob &job : built) {
            const std::uint64_t key = job.key();
            if (jobs_.count(key) != 0)
                continue;
            if (std::find(seen.begin(), seen.end(), key) !=
                seen.end())
                continue;
            if (findInJournals(key, scratch))
                continue;
            seen.push_back(key);
            ++new_jobs;
        }
    }
    if (queue_.size() + new_jobs > opts_.max_pending_jobs) {
        rejectSubmit(fd,
                     "queue full (" + std::to_string(queue_.size()) +
                         " pending, +" + std::to_string(new_jobs) +
                         " would exceed " +
                         std::to_string(opts_.max_pending_jobs) +
                         ")",
                     kRejectRetryMs);
        return;
    }

    const std::uint64_t id = next_campaign_id_++;
    Campaign &c = campaigns_[id];
    c.client_fd = fd;
    c.jobs = std::move(built);
    cit->second.campaigns.push_back(id);
    ++report_.submissions;

    Frame ack;
    ack.type = FrameType::SubmitAck;
    ack.key = campaignFingerprint(c.jobs);
    ack.aux = static_cast<std::uint32_t>(c.jobs.size());
    if (!writeFrame(fd, ack)) {
        dropClient(fd, "ack failed");
        return;
    }
    admit(id);
}

bool
Fleet::sendToCampaign(std::uint64_t campaign_id,
                                      const Frame &frame)
{
    auto it = campaigns_.find(campaign_id);
    if (it == campaigns_.end() || it->second.client_fd < 0)
        return false; // orphaned: result stays in journal/table
    const int fd = it->second.client_fd;
    if (clients_.count(fd) == 0)
        return false;
    if (!writeFrame(fd, frame)) {
        dropClient(fd, "send failed");
        return false;
    }
    return true;
}

void
Fleet::dropClient(int fd, const char *why)
{
    auto it = clients_.find(fd);
    if (it == clients_.end())
        return;
    std::fprintf(stderr, "campaignd: client dropped (%s)\n", why);
    ++report_.client_disconnects;
    // Orphan the client's campaigns instead of cancelling them:
    // their jobs keep running and the results land in the journal,
    // so an idempotent resubmission replays instead of re-running.
    for (const std::uint64_t id : it->second.campaigns) {
        auto cit = campaigns_.find(id);
        if (cit != campaigns_.end())
            cit->second.client_fd = -1;
    }
    ::close(fd);
    clients_.erase(it);
}

void
Fleet::checkClientIdle(Clock::time_point now)
{
    if (opts_.idle_timeout_ms == 0)
        return;
    std::vector<int> idle;
    for (const auto &entry : clients_)
        if (now - entry.second.last_activity >
            Millis(opts_.idle_timeout_ms))
            idle.push_back(entry.first);
    for (const int fd : idle)
        dropClient(fd, "idle timeout");
}

// ---- drain ---------------------------------------------------------------

bool
Fleet::submissionDone() const
{
    return inproc_id_ != 0 && campaigns_.count(inproc_id_) == 0;
}

void
Fleet::drainQueue()
{
    // Nothing new runs while draining: queued jobs fail as Drained,
    // and so does a job reclaimed from a worker that dies mid-drain.
    while (!queue_.empty()) {
        const std::uint64_t key = queue_.front();
        queue_.pop_front();
        failJob(key, CampaignJobState::Drained, "Drained",
                "drained before the job ran");
    }
}

bool
Fleet::drained() const
{
    return draining_ &&
           std::none_of(slots_.begin(), slots_.end(),
                        [](const WorkerSlot &ws) { return ws.busy; });
}

// ---- the loop ------------------------------------------------------------

ServiceReport
Fleet::run()
{
    for (;;) {
        if (!draining_ && drain_flag_.load(std::memory_order_relaxed)) {
            draining_ = true;
            report_.drain_requested = true;
        }
        if (submissionDone())
            draining_ = true;
        if (draining_)
            drainQueue();
        if (drained())
            return report_;

        pumpDispatch();
        const bool in_process = fleetGone() && !queue_.empty();
        if (in_process)
            runOneInProcess();

        std::vector<struct pollfd> fds;
        std::vector<int> slot_of; // fds index -> worker slot, -1 = not
        if (listen_fd_ >= 0) {
            fds.push_back({listen_fd_, POLLIN, 0});
            slot_of.push_back(-1);
        }
        for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
            if (!slots_[slot].alive)
                continue;
            fds.push_back({slots_[slot].fd, POLLIN, 0});
            slot_of.push_back(static_cast<int>(slot));
        }
        for (const auto &entry : clients_) {
            fds.push_back({entry.first, POLLIN, 0});
            slot_of.push_back(-1);
        }

        // In-process work does not wait for traffic.
        const int rc = ::poll(fds.data(),
                              static_cast<nfds_t>(fds.size()),
                              in_process ? 0 : 50);
        if (rc < 0) {
            if (errno == EINTR)
                continue; // a drain signal landed; loop re-checks
            raiseService(std::string("poll(): ") +
                         std::strerror(errno));
        }

        const Clock::time_point now = Clock::now(); // host timing
        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (fds[i].revents == 0)
                continue;
            const int slot = slot_of[i];
            if (fds[i].fd == listen_fd_)
                acceptClients();
            else if (slot < 0)
                handleClientInput(fds[i].fd);
            else if (slots_[static_cast<std::size_t>(slot)].alive &&
                     slots_[static_cast<std::size_t>(slot)].fd ==
                         fds[i].fd)
                handleWorkerInput(slot);
        }

        checkLiveness(now);
        checkClientIdle(now);
    }
}

} // namespace

// ---- public surface ------------------------------------------------------

CampaignService::CampaignService(ServiceOptions opts)
    : opts_(std::move(opts))
{
}

ServiceReport
CampaignService::serve()
{
    Fleet fleet(opts_, drain_);
    fleet.bindSocket();
    fleet.openJournals();
    fleet.startFleet();
    std::fprintf(stderr, "campaignd: serving on %s (workers=%d%s)\n",
                 opts_.socket_path.c_str(), std::max(opts_.workers, 1),
                 opts_.journal_base.empty() ? "" : ", journaled");
    return fleet.run();
}

CampaignOutcome
CampaignEngine::run(const std::vector<SimJob> &jobs)
{
    ServiceOptions sopts;
    static_cast<FleetOptions &>(sopts) = opts_;
    // A batch serves whatever its journal already holds; campaignd
    // removes the journal first unless asked to resume.
    sopts.resume = true;
    CampaignOutcome outcome;
    ServiceReport fleet_report;
    {
        Fleet fleet(sopts, drain_);
        fleet.openJournals();
        fleet.submitInProcess(jobs, outcome.jobs);
        if (!opts_.force_in_process && fleet.queued())
            fleet.startFleet();
        fleet_report = fleet.run();
    }

    CampaignReport &r = outcome.report;
    for (const CampaignJobOutcome &job : outcome.jobs) {
        switch (job.state) {
          case CampaignJobState::Completed:
            ++r.completed;
            break;
          case CampaignJobState::Failed:
            ++r.failed;
            break;
          case CampaignJobState::Poisoned:
            ++r.poisoned;
            break;
          case CampaignJobState::Drained:
            ++r.drained;
            break;
          case CampaignJobState::Exhausted:
            break;
        }
        if (job.from_journal)
            ++r.journal_hits;
    }
    r.dispatched = fleet_report.dispatched;
    r.redispatched = fleet_report.redispatched;
    r.worker_deaths = fleet_report.worker_deaths;
    r.workers_respawned = fleet_report.workers_respawned;
    r.hung_workers_killed = fleet_report.hung_workers_killed;
    r.corrupt_frames = fleet_report.corrupt_frames;
    r.heartbeats = fleet_report.heartbeats;
    r.degraded_in_process = fleet_report.degraded_in_process;
    r.drain_requested = fleet_report.drain_requested;

    if (!opts_.journal_base.empty()) {
        // Rebuilt from scratch every run so the merged journal is a
        // pure function of (job list, results): submission order,
        // duplicate keys collapsed to their first occurrence.
        const std::string path = mergedPath(opts_.journal_base);
        (void)::unlink(path.c_str());
        ResultJournal merged;
        merged.open(path);
        std::unordered_set<std::uint64_t> written;
        for (std::size_t i = 0; i < jobs.size(); ++i)
            if (outcome.jobs[i].ok() &&
                written.insert(jobs[i].key()).second)
                merged.append(jobs[i].key(), outcome.jobs[i].result);
    }
    return outcome;
}

} // namespace ckesim

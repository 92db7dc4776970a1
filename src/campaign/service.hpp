/**
 * @file
 * Long-lived campaign service: the one fleet supervisor. It listens on
 * an AF_UNIX stream socket, accepts concurrent client connections,
 * and runs submitted campaigns over a persistent forked worker fleet.
 * A batch campaign (CampaignEngine::run) is the same poll loop with
 * one in-process submission and no socket.
 *
 * Protocol: clients speak the CRC-framed campaign/wire format.
 * SubmitCampaign carries a named-campaign ref (name + cycles); both
 * sides rebuild the job list locally and the SubmitAck fingerprint
 * verifies they agree. The service answers SubmitAck (key = campaign
 * fingerprint), streams JobResult / JobFailed frames as jobs reach
 * terminal states, and finishes with CampaignDone. Ping/Pong probes
 * refresh the idle timeout. Workers get each job by value in its
 * Dispatch frame, so they hold no campaign state.
 *
 * Robustness contract (the point of the exercise):
 *
 *  - one poll(2) loop owns everything — listen socket, client
 *    sockets, worker sockets. No threads, so forking workers is safe
 *    and there is no cross-client locking to get wrong;
 *  - each client connection has its own incremental FrameParser;
 *    sticky corruption on one client's stream drops THAT client only
 *    — other clients keep streaming;
 *  - admission control: a bounded pending-job queue (overflow =>
 *    Reject with a retry-after hint), a per-client in-flight campaign
 *    cap, and an idle-client timeout;
 *  - cross-campaign dedupe: jobs are keyed by SimJob content hash; a
 *    job submitted by N clients (or N times by one client) runs once
 *    and fans its result out to every subscriber;
 *  - worker failures are handled as CampaignEngine describes:
 *    liveness deadline, bounded attempts, poison quarantine, and
 *    in-process runs once no worker is left;
 *  - client disconnect mid-stream orphans nothing: the dead client's
 *    jobs keep running and their results land in the fsync'd journal
 *    shards, so an idempotent resubmission replays completed results
 *    (JobResult aux bit 0 set) instead of re-running them;
 *  - SIGTERM (requestDrain()) refuses new submissions, finishes
 *    in-flight jobs, fails queued jobs as Drained, notifies every
 *    client, and shuts the fleet down cleanly;
 *  - SIGKILL loses nothing durable: `--serve --resume` replays the
 *    journal shards, so completed work survives the crash.
 */

#ifndef CKESIM_CAMPAIGN_SERVICE_HPP
#define CKESIM_CAMPAIGN_SERVICE_HPP

#include <atomic>
#include <cstdint>
#include <string>

#include "campaign/campaign_engine.hpp"

namespace ckesim {

/** The fleet plus the daemon's socket, resume and admission limits. */
struct ServiceOptions : FleetOptions
{
    /** AF_UNIX socket path to listen on (unlinked + rebound). */
    std::string socket_path;

    /** Replay an existing journal (shards and merged) instead of
     *  removing it. */
    bool resume = false;

    /** Admission control: queued-but-undispatched jobs beyond this
     *  Reject the submission with a retry-after hint. */
    std::size_t max_pending_jobs = 256;

    /** Admission control: in-flight campaigns per client connection
     *  beyond this are Rejected. */
    std::size_t max_client_campaigns = 4;

    /** Clients silent for longer than this are disconnected
     *  (Ping refreshes it). 0 disables the timeout. */
    std::uint64_t idle_timeout_ms = 30000;
};

/** Service-lifetime accounting (stderr diagnostics, tests). */
struct ServiceReport
{
    std::uint64_t connections = 0;       ///< clients accepted
    std::uint64_t submissions = 0;       ///< SubmitCampaign admitted
    std::uint64_t rejected = 0;          ///< SubmitCampaign refused
    std::uint64_t campaigns_done = 0;    ///< CampaignDone sent
    std::uint64_t jobs_completed = 0;    ///< results produced/served
    std::uint64_t jobs_failed = 0;       ///< terminal job failures
    std::uint64_t journal_hits = 0;      ///< served without dispatch
    std::uint64_t dedupe_hits = 0;       ///< subscriptions to live jobs
    std::uint64_t dispatched = 0;        ///< dispatch frames sent
    std::uint64_t redispatched = 0;      ///< re-dispatches after loss
    std::uint64_t client_corrupt = 0;    ///< client streams dropped
    std::uint64_t client_disconnects = 0; ///< EOF/error/timeout drops
    std::uint64_t worker_deaths = 0;
    std::uint64_t workers_respawned = 0;
    std::uint64_t hung_workers_killed = 0;
    std::uint64_t corrupt_frames = 0;    ///< worker streams distrusted
    std::uint64_t heartbeats = 0;        ///< heartbeat frames seen
    std::uint64_t pings = 0;
    bool degraded_in_process = false;    ///< ran jobs without a fleet
    bool drain_requested = false;
};

/**
 * The daemon: listen, admit, dedupe, dispatch, journal, stream.
 * Construct, install a SIGTERM handler that calls requestDrain(),
 * then serve() until drained.
 */
class CampaignService
{
  public:
    explicit CampaignService(ServiceOptions opts);

    const ServiceOptions &options() const { return opts_; }

    /**
     * Bind the socket and run the poll loop until a drain completes.
     * Returns the lifetime report. Throws SimError (kind "Service")
     * when the socket cannot be bound.
     */
    ServiceReport serve();

    /**
     * Ask the running service to drain: refuse new submissions, fail
     * queued jobs as Drained, finish in-flight jobs, notify clients,
     * shut the fleet down. Async-signal-safe (an atomic store).
     */
    void requestDrain()
    {
        drain_.store(true, std::memory_order_relaxed);
    }

  private:
    ServiceOptions opts_;
    std::atomic<bool> drain_{false};
};

} // namespace ckesim

#endif // CKESIM_CAMPAIGN_SERVICE_HPP

/**
 * @file
 * Batch front end of the fault-tolerant campaign fleet.
 *
 * A CampaignEngine runs a job list as one in-process submission on
 * the campaign service's poll loop (campaign/service.hpp), with no
 * socket: the loop forks N stateless workers, dispatches each job by
 * value (encodeSimJob over the CRC-framed wire in campaign/wire.hpp),
 * collects results and supervises liveness, and drains once every
 * job is terminal. Robustness is the point, and a daemon's clients
 * get the same:
 *
 *  - worker heartbeats ride the simulator's run-control poll cadence;
 *    a worker whose heartbeats stop past the liveness deadline is
 *    SIGKILLed and its job re-dispatched;
 *  - a worker that dies (crash, OOM, injected SIGKILL) surfaces as a
 *    closed socket; its job is re-dispatched with bounded attempts;
 *  - an unexpected or corrupt frame marks the worker compromised:
 *    killed, respawned, job re-dispatched;
 *  - a poison job — one that kills K workers — is quarantined as a
 *    structured error instead of being retried forever;
 *  - when no worker is alive and none can be respawned, jobs run
 *    in-process, one per loop turn;
 *  - SIGTERM (via requestDrain()) finishes in-flight jobs, marks the
 *    rest Drained, and shuts the fleet down cleanly.
 *
 * Durability: with a journal base set, every received result is
 * appended to one journal shard per worker slot (fsync'd, CRC'd — the
 * metrics/journal format), so an orchestrator crash loses nothing
 * that was handed back; on completion the shards are merged in job
 * submission order into a canonical merged journal whose bytes are
 * identical for any worker count and any crash/redispatch history.
 */

#ifndef CKESIM_CAMPAIGN_CAMPAIGN_ENGINE_HPP
#define CKESIM_CAMPAIGN_CAMPAIGN_ENGINE_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics/sim_job.hpp"
#include "sim/procfault.hpp"

namespace ckesim {

/** What both front ends of the fleet share: its shape, liveness
 *  policy, failure bounds, durability and fault plan. */
struct FleetOptions
{
    /** Worker processes to fork; values < 1 are clamped to 1. */
    int workers = 1;

    /** Journal base path; shards land at <base>.shard<N>, and a batch
     *  run writes the merged journal at <base>.merged. Empty =
     *  in-memory only. */
    std::string journal_base;

    /** Minimum gap between worker heartbeats. */
    std::uint64_t heartbeat_ms = 25;

    /** No heartbeat for this long while owning a job = hung worker:
     *  SIGKILL and re-dispatch. */
    std::uint64_t liveness_deadline_ms = 5000;

    /** Max dispatch attempts per job across worker losses; then the
     *  job ends Exhausted. */
    int max_dispatch_attempts = 4;

    /** Worker deaths a single job may cause before it is quarantined
     *  as poisoned. */
    int poison_worker_deaths = 2;

    /** Fleet-fault injection plan (kill/stall/corrupt/drop/spawn). */
    ProcFaultPlan faults;
};

/** One batch campaign. */
struct CampaignOptions : FleetOptions
{
    /** Skip the fleet entirely and run in-process (degraded mode). */
    bool force_in_process = false;
};

/** Terminal state of one campaign job. */
enum class CampaignJobState : std::uint8_t {
    Completed = 0, ///< result is valid
    Failed,        ///< structured SimError from the simulation
    Poisoned,      ///< quarantined after killing K workers
    Exhausted,     ///< max_dispatch_attempts spent without a result
    Drained,       ///< campaign drained before the job ran
};

/** Display name of a CampaignJobState. */
const char *campaignJobStateName(CampaignJobState state);

/** What became of one job, in submission order. */
struct CampaignJobOutcome
{
    CampaignJobState state = CampaignJobState::Drained;
    SimResult result;         ///< set when state == Completed
    std::string error_kind;   ///< SimError kind / "Poisoned" / ...
    std::string error_detail; ///< human-readable failure story
    int attempts = 0;         ///< dispatch attempts consumed
    bool from_journal = false; ///< served from a shard/merged journal

    bool ok() const { return state == CampaignJobState::Completed; }
};

/** Fleet-level accounting of one campaign run. */
struct CampaignReport
{
    std::uint64_t completed = 0;        ///< jobs with results
    std::uint64_t journal_hits = 0;     ///< served without dispatch
    std::uint64_t dispatched = 0;       ///< dispatch frames sent
    std::uint64_t redispatched = 0;     ///< re-dispatches after loss
    std::uint64_t worker_deaths = 0;    ///< sockets that went dark
    std::uint64_t workers_respawned = 0;
    std::uint64_t hung_workers_killed = 0; ///< liveness deadline kills
    std::uint64_t corrupt_frames = 0;   ///< streams declared corrupt
    std::uint64_t poisoned = 0;         ///< jobs quarantined
    std::uint64_t failed = 0;           ///< structured job failures
    std::uint64_t drained = 0;          ///< jobs never started
    std::uint64_t heartbeats = 0;       ///< heartbeat frames seen
    bool degraded_in_process = false;   ///< fleet unavailable
    bool drain_requested = false;
};

/** Everything a campaign run produced. */
struct CampaignOutcome
{
    std::vector<CampaignJobOutcome> jobs; ///< submission order
    CampaignReport report;

    bool allCompleted() const;
};

/** Stable 32-bit fingerprint of a result (CRC of its canonical
 *  encoding — the same bytes the journal stores). */
std::uint32_t resultFingerprint(const SimResult &result);

/**
 * The diff-stable campaign result table: header (name, cycles, job
 * count, campaign fingerprint) plus one line per job with its content
 * key, terminal state and result fingerprint (or error kind). One
 * formatter shared by ckesim-campaignd and ckesim-campaign-client so
 * "byte-identical tables" is a property of the data, not of two
 * printf copies staying in sync.
 */
std::string formatCampaignTable(
    const std::string &name, std::uint64_t cycles,
    const std::vector<SimJob> &jobs,
    const std::vector<CampaignJobOutcome> &outcomes);

/** Runs one campaign at a time as an in-process submission. */
class CampaignEngine
{
  public:
    explicit CampaignEngine(CampaignOptions opts);

    const CampaignOptions &options() const { return opts_; }

    /**
     * Run @p jobs to terminal states on the service loop (fork fleet,
     * dispatch, recover), then merge. Results already in the journal
     * are served from it. Not reentrant; one campaign per call.
     * Defined in service.cpp, beside the loop.
     */
    CampaignOutcome run(const std::vector<SimJob> &jobs);

    /**
     * Ask the running campaign to drain: in-flight jobs finish (still
     * under liveness supervision), nothing new is dispatched, workers
     * shut down cleanly. Async-signal-safe (an atomic store), so a
     * SIGTERM handler may call it directly.
     */
    void requestDrain()
    {
        drain_.store(true, std::memory_order_relaxed);
    }

    /** Shard journal path for worker slot @p slot. */
    static std::string shardPath(const std::string &base, int slot);

    /** Merged (canonical) journal path. */
    static std::string mergedPath(const std::string &base);

    /** Delete the shards and the merged journal under @p base, so a
     *  fresh run cannot be satisfied by an earlier one's results. */
    static void removeJournal(const std::string &base);

  private:
    CampaignOptions opts_;
    std::atomic<bool> drain_{false};
};

} // namespace ckesim

#endif // CKESIM_CAMPAIGN_CAMPAIGN_ENGINE_HPP

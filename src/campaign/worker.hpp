/**
 * @file
 * Campaign worker: the child-process half of the campaign layer. A
 * worker is forked by the fleet loop (campaign/service.cpp) and is
 * stateless: every Dispatch carries the job itself (encodeSimJob),
 * which the worker decodes, checks against the frame's content hash,
 * runs on a serial in-process SweepEngine, and answers with a result,
 * a structured error, and heartbeats over its socket.
 *
 * Heartbeats ride the simulator's run-control poll cadence: the
 * worker proves liveness exactly as often as the simulation proves
 * forward progress, so a wedged simulation (or a worker stalled by
 * fault injection) goes silent and the loop's liveness deadline
 * reclaims the job.
 */

#ifndef CKESIM_CAMPAIGN_WORKER_HPP
#define CKESIM_CAMPAIGN_WORKER_HPP

#include <cstdint>

#include "sim/procfault.hpp"

namespace ckesim {

/** Everything a forked worker needs to serve its socket. */
struct WorkerConfig
{
    int fd = -1;          ///< worker end of the socketpair
    int worker_index = 0; ///< this worker's slot
    std::uint64_t heartbeat_ms = 25; ///< min gap between heartbeats
    ProcFaultPlan faults; ///< inherited fleet-fault plan
};

/**
 * Serve dispatches from @p cfg.fd until Shutdown or EOF. A Dispatch
 * whose payload does not decode, or decodes to a job whose key is
 * not the frame's, is answered with a JobError of kind "Dispatch".
 * Returns the intended process exit status (0 = clean shutdown); a
 * forked caller must pass it to _exit() without running atexit
 * handlers — the worker shares the parent's forked address space.
 */
int runCampaignWorker(const WorkerConfig &cfg);

} // namespace ckesim

#endif // CKESIM_CAMPAIGN_WORKER_HPP

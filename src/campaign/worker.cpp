#include "campaign/worker.hpp"

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <thread>

#include "campaign/wire.hpp"
#include "metrics/journal.hpp"
#include "metrics/sweep_engine.hpp"
#include "sim/check.hpp"

namespace ckesim {

namespace {

using SteadyClock = std::chrono::steady_clock; // SIMCHECK-ALLOW(determinism-hazard): worker heartbeat pacing, never simulated state

/** Mutable per-job state shared with the poll hook. */
struct WorkerState
{
    int fd = -1;
    int worker_index = 0;
    std::uint32_t job_index = 0;
    std::uint32_t attempt = 0;
    std::uint64_t heartbeat_ms = 25;
    ProcFaultPlan *faults = nullptr;
    SteadyClock::time_point last_beat{};
};

/**
 * The poll hook: fault trigger points first (a worker that is about
 * to die must not heartbeat its way past the liveness window), then
 * a rate-limited heartbeat.
 */
void
onWorkerPoll(WorkerState &st)
{
    const int job = static_cast<int>(st.job_index);
    const int attempt = static_cast<int>(st.attempt);
    if (st.faults->fire(ProcFaultKind::KillWorkerMidJob,
                        st.worker_index, job, attempt)) {
        // A real crash, not an exit path: SIGKILL gives the
        // orchestrator the same evidence a segfault or OOM kill
        // would — a closed socket and a dead pid.
        ::kill(::getpid(), SIGKILL);
    }
    if (st.faults->fire(ProcFaultKind::StallHeartbeat,
                        st.worker_index, job, attempt)) {
        // Wedge forever without burning the host CPU; the
        // orchestrator's liveness deadline must reclaim the job.
        for (;;)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
    }
    const auto now = SteadyClock::now(); // heartbeat pacing only
    if (now - st.last_beat <
        std::chrono::milliseconds(st.heartbeat_ms))
        return;
    st.last_beat = now;
    Frame beat;
    beat.type = FrameType::Heartbeat;
    beat.job_index = st.job_index;
    beat.aux = st.attempt;
    // A vanished orchestrator is handled at the next blocking read;
    // nothing useful to do about a failed heartbeat here.
    (void)writeFrame(st.fd, beat);
}

} // namespace

int
runCampaignWorker(const WorkerConfig &cfg)
{
    ProcFaultPlan faults = cfg.faults;
    WorkerState st;
    st.fd = cfg.fd;
    st.worker_index = cfg.worker_index;
    st.heartbeat_ms = cfg.heartbeat_ms;
    st.faults = &faults;

    // One serial engine per worker: each dispatched job is computed
    // single-threaded (bit-deterministic). It holds caches only: the
    // profiling windows of the prefix classes it has run, and the
    // most recently used results, among them the nested isolated
    // baselines a campaign's jobs share. The daemon keeps the
    // results, so the memo is bounded and the worker's memory stays
    // flat in the jobs it serves.
    SweepEngine engine(1);
    engine.setMemoLimit(kWorkerMemoEntries);
    engine.setPollHook([&st] { onWorkerPoll(st); });

    for (;;) {
        Frame frame;
        const WireStatus status = readFrameBlocking(cfg.fd, frame);
        if (status == WireStatus::Eof)
            return 0; // the loop is gone; nothing left to serve
        if (status == WireStatus::Corrupt)
            return 1;
        if (frame.type == FrameType::Shutdown)
            return 0;
        if (frame.type != FrameType::Dispatch)
            continue; // tolerate unknown-but-valid traffic

        st.job_index = frame.job_index;
        st.attempt = frame.aux;
        st.last_beat = SteadyClock::now(); // heartbeat pacing only

        Frame reply;
        reply.job_index = frame.job_index;
        reply.aux = frame.aux;
        reply.key = frame.key;

        // The payload is the job; it must hash to the frame's key.
        // The decoded profiles live as long as this dispatch.
        std::vector<KernelProfile> profiles;
        SimJob job;
        std::string refused;
        try {
            job = decodeSimJob(frame.payload, profiles);
            if (job.key() != frame.key) {
                char why[96];
                std::snprintf(why, sizeof why,
                              "payload decodes to key %016" PRIx64
                              ", not the frame's %016" PRIx64,
                              job.key(), frame.key);
                refused = why;
            }
        } catch (const SimError &e) {
            refused = std::string("payload does not decode: ") +
                      e.what();
        }
        if (!refused.empty()) {
            reply.type = FrameType::JobError;
            reply.payload = encodeJobError("Dispatch", refused);
            if (!writeFrame(cfg.fd, reply))
                return 1;
            continue;
        }

        try {
            const SimResult result = engine.run(job);
            reply.type = FrameType::Result;
            reply.payload = encodeSimResult(result);
        } catch (const SimError &e) {
            reply.type = FrameType::JobError;
            reply.payload = encodeJobError(e.kind(), e.what());
        }

        const int job_idx = static_cast<int>(frame.job_index);
        const int attempt = static_cast<int>(frame.aux);
        if (reply.type == FrameType::Result &&
            faults.fire(ProcFaultKind::DropResult, cfg.worker_index,
                        job_idx, attempt)) {
            // Computed, then silently lost: the orchestrator can
            // only tell via the missing heartbeats.
            continue;
        }
        std::vector<std::uint8_t> bytes = encodeFrame(reply);
        if (reply.type == FrameType::Result &&
            !reply.payload.empty() &&
            faults.fire(ProcFaultKind::CorruptFrame,
                        cfg.worker_index, job_idx, attempt)) {
            // Flip one payload byte after the CRC was computed.
            bytes[kFrameHeaderBytes + reply.payload.size() / 2] ^=
                0xffu;
        }
        if (!writeAll(cfg.fd, bytes))
            return 1;
    }
}

} // namespace ckesim

#include "campaign/client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "campaign/campaign_spec.hpp"
#include "metrics/journal.hpp"
#include "sim/check.hpp"

namespace ckesim {

namespace {

using Clock = std::chrono::steady_clock; // SIMCHECK-ALLOW(determinism-hazard): host-side receive timeout, never simulated state
using Millis = std::chrono::milliseconds;

/** Connect to the service socket; -1 on failure. */
int
connectService(const std::string &path)
{
    struct sockaddr_un addr;
    if (path.empty() || path.size() >= sizeof addr.sun_path)
        return -1;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof addr.sun_path - 1);
    for (;;) {
        if (::connect(fd,
                      reinterpret_cast<struct sockaddr *>(&addr),
                      sizeof addr) == 0)
            return fd;
        if (errno == EINTR)
            continue;
        ::close(fd);
        return -1;
    }
}

/** Map a JobFailed kind onto the terminal state it stands for. */
CampaignJobState
failureState(const std::string &kind)
{
    if (kind == "Drained")
        return CampaignJobState::Drained;
    if (kind == "Poisoned")
        return CampaignJobState::Poisoned;
    if (kind == "Exhausted")
        return CampaignJobState::Exhausted;
    return CampaignJobState::Failed;
}

/** What one submission attempt ended as. */
enum class AttemptEnd : std::uint8_t {
    Done = 0,    ///< CampaignDone received; outcome is final
    Retry,       ///< transient failure; resubmit after backoff
    RejectRetry, ///< Reject with a retry-after hint
    Fatal,       ///< outcome.status/report.error are final
};

struct Attempt
{
    AttemptEnd end = AttemptEnd::Fatal;
    std::uint64_t retry_after_ms = 0; ///< RejectRetry hint
};

/**
 * One full submit-and-stream attempt over a fresh connection.
 * Fills @p outcome progressively; only AttemptEnd::Done makes it
 * final.
 */
Attempt
runAttempt(const ClientOptions &opts, ProcFaultPlan &faults,
           int attempt_no, std::uint64_t fingerprint,
           ClientOutcome &outcome)
{
    Attempt res;
    const int fd = connectService(opts.socket_path);
    if (fd < 0) {
        outcome.status = ClientStatus::ConnectionLost;
        outcome.report.error =
            "connect('" + opts.socket_path + "') failed";
        res.end = AttemptEnd::Retry;
        return res;
    }

    Frame submit;
    submit.type = FrameType::SubmitCampaign;
    submit.key = fingerprint;
    submit.payload = encodeCampaignRef(opts.ref);
    std::vector<std::uint8_t> bytes = encodeFrame(submit);
    if (faults.fire(ProcFaultKind::CorruptClientFrame, -1, -1,
                    attempt_no)) {
        // Flip one payload byte after the CRC was computed: the
        // service must declare this stream corrupt and drop us.
        bytes[kFrameHeaderBytes + submit.payload.size() / 2] ^= 0xffu;
    }
    if (!writeFully(fd, bytes.data(), bytes.size())) {
        ::close(fd);
        outcome.status = ClientStatus::ConnectionLost;
        outcome.report.error = "submission write failed";
        res.end = AttemptEnd::Retry;
        return res;
    }

    // Fresh attempt, fresh slate: a resubmission replays every
    // already-completed job from the service's journal/table.
    outcome.outcomes.assign(outcome.jobs.size(),
                            CampaignJobOutcome{});
    bool acked = false;
    std::uint64_t resolved = 0;
    int results_received = 0;
    FrameParser parser;
    Clock::time_point deadline =
        Clock::now() + Millis(opts.timeout_ms);

    for (;;) {
        Frame frame;
        while (parser.next(frame)) {
            deadline = Clock::now() + Millis(opts.timeout_ms);
            switch (frame.type) {
              case FrameType::Reject: {
                ++outcome.report.rejects;
                RejectInfo info;
                try {
                    info = decodeReject(frame.payload);
                } catch (const SimError &) {
                    info.reason = "undecodable reject payload";
                }
                ::close(fd);
                outcome.status = ClientStatus::Rejected;
                outcome.report.error = info.reason;
                if (info.retry_after_ms > 0) {
                    res.end = AttemptEnd::RejectRetry;
                    res.retry_after_ms = info.retry_after_ms;
                } else {
                    res.end = AttemptEnd::Fatal; // e.g. unknown name
                }
                return res;
              }
              case FrameType::SubmitAck: {
                if (frame.key != fingerprint ||
                    frame.aux != outcome.jobs.size()) {
                    ::close(fd);
                    outcome.status = ClientStatus::ProtocolError;
                    outcome.report.error =
                        "SubmitAck disagrees about the campaign "
                        "(fingerprint or job count)";
                    res.end = AttemptEnd::Fatal;
                    return res;
                }
                acked = true;
                break;
              }
              case FrameType::JobResult: {
                if (!acked ||
                    frame.job_index >= outcome.jobs.size() ||
                    outcome.jobs[frame.job_index].key() !=
                        frame.key) {
                    ::close(fd);
                    outcome.status = ClientStatus::ProtocolError;
                    outcome.report.error =
                        "JobResult for a job this campaign does "
                        "not contain";
                    res.end = AttemptEnd::Fatal;
                    return res;
                }
                CampaignJobOutcome &o =
                    outcome.outcomes[frame.job_index];
                if (o.state == CampaignJobState::Completed)
                    break; // duplicate delivery is harmless
                try {
                    o.result = decodeSimResult(frame.payload);
                } catch (const SimError &) {
                    ::close(fd);
                    outcome.status = ClientStatus::ProtocolError;
                    outcome.report.error =
                        "undecodable JobResult payload";
                    res.end = AttemptEnd::Fatal;
                    return res;
                }
                o.state = CampaignJobState::Completed;
                o.from_journal = (frame.aux & 1u) != 0;
                ++outcome.report.results;
                if (o.from_journal)
                    ++outcome.report.replayed;
                ++resolved;
                ++results_received;
                if (faults.fire(ProcFaultKind::DropClientMidStream,
                                -1, results_received, attempt_no)) {
                    // Die abruptly mid-stream: no shutdown, no
                    // goodbye — exactly what a crashed client looks
                    // like to the service.
                    ::close(fd);
                    outcome.status = ClientStatus::ConnectionLost;
                    outcome.report.error =
                        "injected mid-stream drop after " +
                        std::to_string(results_received) +
                        " results";
                    res.end = AttemptEnd::Fatal;
                    return res;
                }
                break;
              }
              case FrameType::JobFailed: {
                if (!acked ||
                    frame.job_index >= outcome.jobs.size()) {
                    ::close(fd);
                    outcome.status = ClientStatus::ProtocolError;
                    outcome.report.error =
                        "JobFailed for a job this campaign does "
                        "not contain";
                    res.end = AttemptEnd::Fatal;
                    return res;
                }
                CampaignJobOutcome &o =
                    outcome.outcomes[frame.job_index];
                try {
                    decodeJobError(frame.payload, o.error_kind,
                                   o.error_detail);
                } catch (const SimError &) {
                    o.error_kind = "JobFailed";
                    o.error_detail = "undecodable payload";
                }
                o.state = failureState(o.error_kind);
                ++outcome.report.failures;
                ++resolved;
                break;
              }
              case FrameType::CampaignDone: {
                ::close(fd);
                if (!acked || resolved < outcome.jobs.size()) {
                    outcome.status = ClientStatus::ProtocolError;
                    outcome.report.error =
                        "CampaignDone before every job resolved";
                    res.end = AttemptEnd::Fatal;
                    return res;
                }
                bool all_ok = true;
                for (const CampaignJobOutcome &o : outcome.outcomes)
                    if (!o.ok())
                        all_ok = false;
                outcome.status = all_ok
                                     ? ClientStatus::Completed
                                     : ClientStatus::JobFailures;
                res.end = AttemptEnd::Done;
                return res;
              }
              default:
                break; // Pong etc.: tolerated
            }
        }
        if (parser.corrupt()) {
            ::close(fd);
            outcome.status = ClientStatus::ProtocolError;
            outcome.report.error = "service stream corrupt: " +
                                   parser.corruptReason();
            res.end = AttemptEnd::Fatal;
            return res;
        }

        const Clock::time_point now = Clock::now();
        if (now >= deadline) {
            ::close(fd);
            outcome.status = ClientStatus::ConnectionLost;
            outcome.report.error =
                "service silent for " +
                std::to_string(opts.timeout_ms) + " ms";
            res.end = AttemptEnd::Retry;
            return res;
        }
        struct pollfd pfd = {fd, POLLIN, 0};
        const auto left = std::chrono::duration_cast<Millis>(
            deadline - now);
        const int rc =
            ::poll(&pfd, 1, static_cast<int>(left.count()) + 1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            outcome.status = ClientStatus::ConnectionLost;
            outcome.report.error =
                std::string("poll(): ") + std::strerror(errno);
            res.end = AttemptEnd::Retry;
            return res;
        }
        if (rc == 0)
            continue; // deadline re-checked above

        std::uint8_t buf[65536];
        for (;;) {
            const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
            if (n > 0) {
                parser.feed(buf, static_cast<std::size_t>(n));
                if (static_cast<std::size_t>(n) < sizeof buf)
                    break;
                continue;
            }
            if (n == 0) {
                ::close(fd);
                outcome.status = ClientStatus::ConnectionLost;
                outcome.report.error =
                    "service closed the connection mid-stream";
                res.end = AttemptEnd::Retry;
                return res;
            }
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            ::close(fd);
            outcome.status = ClientStatus::ConnectionLost;
            outcome.report.error =
                std::string("recv(): ") + std::strerror(errno);
            res.end = AttemptEnd::Retry;
            return res;
        }
    }
}

} // namespace

const char *
clientStatusName(ClientStatus status)
{
    switch (status) {
      case ClientStatus::Completed:
        return "completed";
      case ClientStatus::JobFailures:
        return "job-failures";
      case ClientStatus::Rejected:
        return "rejected";
      case ClientStatus::ConnectionLost:
        return "connection-lost";
      case ClientStatus::ProtocolError:
        return "protocol-error";
    }
    return "unknown";
}

std::uint64_t
retryBackoffMs(std::uint64_t base_ms, std::uint64_t key, int attempt)
{
    const std::uint64_t base =
        base_ms << static_cast<unsigned>(std::min(attempt, 32));
    const std::uint64_t span = base / 2;
    if (span == 0)
        return base;
    // splitmix64 over (key, attempt): high-quality, seedable, and —
    // unlike wall-clock or RNG jitter — bit-reproducible per job.
    std::uint64_t z = key ^
                      (static_cast<std::uint64_t>(attempt) + 1) *
                          0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return base + z % (span + 1);
}

ClientOutcome
runCampaignClient(const ClientOptions &opts)
{
    ClientOutcome outcome;
    // May throw SimError (kind "Config") for a name the client
    // itself does not know — that is a usage error, not a service
    // failure.
    outcome.jobs =
        buildNamedCampaign(opts.ref.name, Cycle{opts.ref.cycles});
    outcome.outcomes.assign(outcome.jobs.size(),
                            CampaignJobOutcome{});
    const std::uint64_t fingerprint =
        campaignFingerprint(outcome.jobs);

    ProcFaultPlan faults = opts.faults;

    for (int attempt = 0;; ++attempt) {
        ++outcome.report.attempts;
        const Attempt res =
            runAttempt(opts, faults, attempt, fingerprint, outcome);
        if (res.end == AttemptEnd::Done ||
            res.end == AttemptEnd::Fatal)
            return outcome;
        if (attempt >= opts.retries)
            return outcome; // keep the last attempt's failure story
        // Deterministic jittered backoff, floored by the service's
        // retry-after hint when one was given.
        std::uint64_t wait_ms =
            retryBackoffMs(opts.backoff_ms, fingerprint, attempt);
        if (res.end == AttemptEnd::RejectRetry &&
            res.retry_after_ms > wait_ms)
            wait_ms = res.retry_after_ms;
        if (wait_ms > 0)
            std::this_thread::sleep_for(Millis(wait_ms));
    }
}

} // namespace ckesim

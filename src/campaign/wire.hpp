/**
 * @file
 * Frame protocol between the campaign orchestrator and its worker
 * processes, reusing the metrics/journal record discipline: every
 * frame is length-prefixed, CRC-32 checked and versioned, so a torn,
 * corrupted or version-skewed byte stream is detected at the frame
 * boundary and the peer can be declared compromised instead of being
 * trusted with garbage.
 *
 * Layout (little-endian), header then payload:
 *
 *   magic      u32  "CKCF"
 *   version    u8   kWireVersion
 *   type       u8   FrameType
 *   job_index  u32  campaign job index (frame types that carry one)
 *   aux        u32  dispatch attempt / worker slot / flags
 *   key        u64  SimJob content hash (dispatch/result integrity)
 *   len        u32  payload byte count
 *   crc        u32  CRC-32 over the payload
 *
 * The orchestrator reads its ends non-blocking and feeds bytes into a
 * FrameParser (a hung worker can stall mid-frame; the orchestrator
 * must never block on it). Workers read blocking — they trust the
 * orchestrator and die on EOF.
 */

#ifndef CKESIM_CAMPAIGN_WIRE_HPP
#define CKESIM_CAMPAIGN_WIRE_HPP

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace ckesim {

inline constexpr std::uint32_t kWireMagic = 0x46434b43u; // "CKCF"
inline constexpr std::uint8_t kWireVersion = 1;

/** Frame discriminator. Types 2-6 are the orchestrator<->worker
 *  protocol; types 7-14 are the client<->service submission protocol
 *  layered on the same framing (DESIGN.md section 16). Type 1, a
 *  retired worker handshake, is not a valid frame. */
enum class FrameType : std::uint8_t {
    /** orchestrator -> worker: run the job in the payload
     *  (encodeSimJob bytes); key = its content hash, job_index = its
     *  index in the first submission that named it, aux = attempt. */
    Dispatch = 2,
    /** worker -> orchestrator: payload = encodeSimResult bytes. */
    Result = 3,
    /** worker -> orchestrator: the job failed with a structured
     *  SimError; payload = encodeJobError bytes. */
    JobError = 4,
    /** worker -> orchestrator: still alive on jobs[job_index]. */
    Heartbeat = 5,
    /** orchestrator -> worker: drain and exit cleanly. */
    Shutdown = 6,

    /** client -> service: payload = encodeCampaignRef (named-campaign
     *  ref + cycles); asks the service to run that campaign. */
    SubmitCampaign = 7,
    /** service -> client: submission admitted. key = campaign
     *  fingerprint (the client verifies it against its own build of
     *  the ref), aux = job count. */
    SubmitAck = 8,
    /** service -> client: one completed job. job_index = index in the
     *  submitted campaign, key = job content hash, aux bit 0 = served
     *  from the journal, payload = encodeSimResult bytes. */
    JobResult = 9,
    /** service -> client: one terminally failed job. payload =
     *  encodeJobError (kind "Drained"/"Poisoned"/"Exhausted"/sim
     *  error kind + detail). */
    JobFailed = 10,
    /** service -> client: every job of the submission reached a
     *  terminal state; aux = number of completed jobs. */
    CampaignDone = 11,
    /** service -> client: submission refused (overload, per-client
     *  cap, drain, unknown campaign). payload = encodeReject with a
     *  reason and a retry-after hint. */
    Reject = 12,
    /** client -> service: liveness probe / idle-timeout refresh; the
     *  service echoes job_index/aux/key back in a Pong. */
    Ping = 13,
    /** service -> client: Ping echo. */
    Pong = 14,
};

/** One decoded frame. */
struct Frame
{
    FrameType type = FrameType::Heartbeat;
    std::uint32_t job_index = 0;
    std::uint32_t aux = 0;
    std::uint64_t key = 0;
    std::vector<std::uint8_t> payload;
};

/** magic + version + type + job_index + aux + key + len + crc. */
inline constexpr std::size_t kFrameHeaderBytes =
    4 + 1 + 1 + 4 + 4 + 8 + 4 + 4;

/** Serialize @p frame (header + payload) for the wire. */
std::vector<std::uint8_t> encodeFrame(const Frame &frame);

// ---- shared low-level I/O (every socket loop routes through these) ------

/** What a full-buffer read produced. */
enum class IoStatus {
    Ok,    ///< the whole buffer was transferred
    Eof,   ///< orderly close before the buffer completed
    Error, ///< unrecoverable errno (peer gone, bad fd, ...)
};

/**
 * Write exactly @p n bytes to @p fd. EINTR is retried, SIGPIPE is
 * suppressed (MSG_NOSIGNAL), and EAGAIN on a non-blocking fd waits up
 * to ~1s per stall for the peer to drain before declaring it gone.
 * Returns false when the peer is unreachable or jammed past the grace
 * window — the caller's recovery path must treat it as lost.
 */
bool writeFully(int fd, const std::uint8_t *bytes, std::size_t n);

/**
 * Blocking read of exactly @p n bytes into @p out. EINTR is retried
 * with a bounded budget so a signal storm cannot livelock the caller.
 */
IoStatus readFully(int fd, std::uint8_t *out, std::size_t n);

/** writeFully over a whole vector. */
bool writeAll(int fd, const std::vector<std::uint8_t> &bytes);

/** encodeFrame + writeAll. */
bool writeFrame(int fd, const Frame &frame);

/** What a blocking frame read produced. */
enum class WireStatus {
    Ok,      ///< a complete, CRC-clean frame
    Eof,     ///< orderly close before a frame started
    Corrupt, ///< bad magic/version/CRC or torn mid-frame close
};

/** Blocking read of exactly one frame (worker side). */
WireStatus readFrameBlocking(int fd, Frame &out);

/**
 * Incremental frame decoder (orchestrator side): feed() whatever
 * bytes arrived, then next() complete frames out. Corruption is
 * sticky — once the stream misaligns nothing after it can be
 * trusted, so the owner must kill the peer.
 */
class FrameParser
{
  public:
    void feed(const std::uint8_t *bytes, std::size_t n);

    /** Pop the next complete frame; false when none is buffered. */
    bool next(Frame &out);

    bool corrupt() const { return corrupt_; }
    const std::string &corruptReason() const { return reason_; }

  private:
    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0; ///< consumed prefix of buf_
    std::deque<Frame> ready_;
    bool corrupt_ = false;
    std::string reason_;
};

// ---- structured job-error payload ---------------------------------------

/** Encode a worker-side SimError (kind + detail) for a JobError
 *  frame. */
std::vector<std::uint8_t> encodeJobError(const std::string &kind,
                                         const std::string &detail);

/** Inverse of encodeJobError; throws SimError kind "Snapshot" on a
 *  malformed payload. */
void decodeJobError(const std::vector<std::uint8_t> &bytes,
                    std::string &kind, std::string &detail);

// ---- submission-protocol payloads ---------------------------------------

/**
 * A named-campaign reference: everything a peer needs to rebuild the
 * exact job list locally (buildNamedCampaign(name, cycles)), so a
 * submission never serializes SimJobs — the SubmitAck fingerprint
 * verifies that both sides built the same thing.
 */
struct CampaignRef
{
    std::string name;          ///< buildNamedCampaign() name
    std::uint64_t cycles = 0;  ///< measurement cycles
};

/** Encode a CampaignRef for a SubmitCampaign payload. */
std::vector<std::uint8_t> encodeCampaignRef(const CampaignRef &ref);

/** Inverse of encodeCampaignRef; throws SimError kind "Snapshot" on
 *  a malformed payload. */
CampaignRef decodeCampaignRef(const std::vector<std::uint8_t> &bytes);

/** Why a submission was refused, plus when to try again. */
struct RejectInfo
{
    std::string reason;              ///< human-readable refusal story
    std::uint64_t retry_after_ms = 0; ///< backoff hint; 0 = never
                                      ///< (e.g. unknown campaign)
};

/** Encode a RejectInfo for a Reject frame payload. */
std::vector<std::uint8_t> encodeReject(const RejectInfo &info);

/** Inverse of encodeReject; throws SimError kind "Snapshot" on a
 *  malformed payload. */
RejectInfo decodeReject(const std::vector<std::uint8_t> &bytes);

} // namespace ckesim

#endif // CKESIM_CAMPAIGN_WIRE_HPP

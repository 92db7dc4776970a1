/**
 * @file
 * Write-ahead results journal: crash-safe persistence for SweepEngine
 * results, so an interrupted sweep resumes instead of recomputing.
 *
 * The journal is an append-only file of self-delimiting records, one
 * per completed SimJob, keyed by the job's content hash (SimJob::key).
 * Each record carries a CRC32 of its payload and every append is
 * fsync'd before the result is considered durable, so a process kill
 * at any byte leaves at most one torn record at the tail — which
 * loading detects and truncates away. Results are re-encoded with the
 * snapshot codec (bit-exact doubles), so a resumed sweep's output
 * table is byte-identical to the uninterrupted run's. Results stay on
 * disk: the journal indexes each key's payload by file offset, length
 * and CRC, and reads it back on demand.
 *
 * Thread safety: find() and append() may be called concurrently from
 * SweepEngine workers; all mutable state is guarded by one mutex.
 */

#ifndef CKESIM_METRICS_JOURNAL_HPP
#define CKESIM_METRICS_JOURNAL_HPP

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "metrics/sim_job.hpp"

namespace ckesim {

/** Load/append statistics for one journal (resume diagnostics). */
struct JournalStats
{
    std::uint64_t loaded = 0;    ///< records recovered at open
    std::uint64_t appended = 0;  ///< records written this process
    std::uint64_t truncated_bytes = 0; ///< torn tail discarded at open
};

/** Append-only, CRC-checked, fsync'd results journal. */
class ResultJournal
{
  public:
    ResultJournal() = default;
    ~ResultJournal();

    ResultJournal(const ResultJournal &) = delete;
    ResultJournal &operator=(const ResultJournal &) = delete;

    /**
     * Open @p path for resuming (creating it if absent): validate and
     * index every intact record, truncate the file at the first
     * record that is not intact (the scan fsckJournal reports), and
     * position for appending. Throws SimError (kind "Journal") when
     * the file cannot be opened or its first record belongs to a
     * different format version.
     */
    void open(const std::string &path);

    bool isOpen() const { return fd_ >= 0; }
    const std::string &path() const { return path_; }

    /**
     * Durably record @p result for job @p key: encode, append one
     * record, fsync. On return the record survives a process kill.
     */
    void append(std::uint64_t key, const SimResult &result);

    /** append(), given the result as encodeSimResult's bytes. */
    void appendPayload(std::uint64_t key,
                       const std::vector<std::uint8_t> &payload);

    /** The recovered/recorded result for @p key, or false. Reads
     *  the payload back from the file and checks its CRC; throws
     *  SimError (kind "Journal") when the bytes no longer match. */
    bool find(std::uint64_t key, SimResult &out) const;

    /** find(), but the payload bytes as read (encodeSimResult's
     *  output), not decoded. */
    bool findPayload(std::uint64_t key,
                     std::vector<std::uint8_t> &out) const;

    /** Whether a record for @p key is present; reads nothing. */
    bool contains(std::uint64_t key) const;

    /** Number of distinct job keys present. */
    std::size_t size() const;

    JournalStats stats() const;

  private:
    /** Where a key's latest payload sits in the file. */
    struct Record
    {
        std::uint64_t offset = 0; ///< of the payload
        std::uint32_t length = 0;
        std::uint32_t crc = 0;
    };

    void close();

    mutable std::mutex mu_;
    int fd_ = -1;
    std::string path_;
    std::uint64_t end_ = 0; ///< file length, where the next record goes
    std::unordered_map<std::uint64_t, Record> records_;
    JournalStats stats_;
};

// ---- offline integrity checking (journal_fsck) ---------------------------

/** Verdict for one on-disk journal record (or the spot where one
 *  should have been). */
enum class JournalRecordStatus : std::uint8_t {
    Ok = 0,     ///< magic, version, CRC and payload all check out
    BadMagic,   ///< record boundary does not start with the magic
    BadVersion, ///< record written by a different format version
    BadCrc,     ///< payload bytes present but CRC mismatch
    BadPayload, ///< CRC fine, SimResult decode failed
    Torn,       ///< record runs past EOF (interrupted append)
};

/** Display name, e.g. "ok", "bad-crc", "torn". */
const char *journalRecordStatusName(JournalRecordStatus status);

/** One scanned record of a journal file. */
struct JournalFsckRecord
{
    std::uint64_t offset = 0;      ///< byte offset of the record
    std::uint64_t key = 0;         ///< job key (when header parsed)
    std::uint32_t payload_len = 0; ///< claimed payload length
    JournalRecordStatus status = JournalRecordStatus::Ok;
    std::string detail;            ///< human-readable diagnosis
};

/**
 * Everything fsckJournal() learned about one file. A torn tail
 * (records cut off by a crash mid-append) is expected wear and keeps
 * clean() true; any failure *before* the final bytes — bad magic, a
 * CRC mismatch on a fully-present record, an undecodable payload —
 * is hard corruption.
 */
struct JournalFsckReport
{
    std::string path;
    std::uint64_t file_bytes = 0;
    std::uint64_t ok_records = 0;
    std::uint64_t distinct_keys = 0;
    std::uint64_t torn_bytes = 0; ///< benign torn tail length
    bool hard_corrupt = false;
    std::vector<JournalFsckRecord> records; ///< file order

    /** No hard corruption (torn tails allowed). */
    bool clean() const { return !hard_corrupt; }
};

/**
 * Read-only integrity scan of the journal at @p path: walk the
 * records up to the first that is not intact, validating
 * magic/version/CRC/payload, and tell a benign torn tail from hard
 * corruption. ResultJournal::open runs the same scan and truncates
 * where it stops; this never modifies the file. Throws SimError
 * (kind "Journal") only when the file cannot be read at all.
 */
JournalFsckReport fsckJournal(const std::string &path);

// ---- result payload codec (shared with tests) ---------------------------

/** Encode a SimResult with the snapshot codec (bit-exact doubles). */
std::vector<std::uint8_t> encodeSimResult(const SimResult &result);

/** Inverse of encodeSimResult; throws SimError kind "Snapshot" on a
 *  malformed payload. */
SimResult decodeSimResult(const std::vector<std::uint8_t> &bytes);

/** Encode what SimJob::key() hashes (walkJob, sim_job.hpp) with the
 *  snapshot codec: kernels by value, the label not at all. */
std::vector<std::uint8_t> encodeSimJob(const SimJob &job);

/** Inverse of encodeSimJob; throws SimError kind "Snapshot" on a
 *  malformed payload. The label comes back empty, so the key is the
 *  encoded job's. The workload points into
 *  @p profiles, which the caller keeps unchanged while it uses the
 *  job. */
SimJob decodeSimJob(const std::vector<std::uint8_t> &bytes,
                    std::vector<KernelProfile> &profiles);

/** CRC32 (IEEE 802.3, reflected) over @p bytes. */
std::uint32_t crc32(const std::uint8_t *bytes, std::size_t n);

} // namespace ckesim

#endif // CKESIM_METRICS_JOURNAL_HPP

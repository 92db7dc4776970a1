#include "metrics/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <set>

#include "sim/check.hpp"
#include "sim/snapshot.hpp"

namespace ckesim {

namespace {

constexpr std::uint32_t kJournalMagic = 0x4c4a4b43u; // "CKJL"

SimCtx
journalCtx()
{
    SimCtx ctx;
    ctx.module = "journal";
    return ctx;
}

[[noreturn]] void
journalFail(const std::string &what)
{
    raiseSimError("Journal", journalCtx(), what);
}

/** magic + version + key + payload_len + crc32. */
constexpr std::size_t kHeaderBytes = 4 + 1 + 8 + 4 + 4;

} // namespace

std::uint32_t
crc32(const std::uint8_t *bytes, std::size_t n)
{
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i)
        c = table[(c ^ bytes[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

// ---- result payload codec -----------------------------------------------

std::vector<std::uint8_t>
encodeSimResult(const SimResult &result)
{
    SnapshotWriter w;
    w.section("sim_result");
    FieldWriter out(w);
    if (result.isolated) {
        w.u8(1);
        out.put(*result.isolated);
    } else if (result.concurrent) {
        w.u8(2);
        out.put(*result.concurrent);
    } else {
        w.u8(0);
    }
    return w.take();
}

SimResult
decodeSimResult(const std::vector<std::uint8_t> &bytes)
{
    SnapshotReader r(bytes);
    r.section("sim_result");
    FieldReader in(r);
    SimResult result;
    const std::uint8_t kind = r.u8();
    if (kind == 1) {
        auto iso = std::make_shared<IsolatedResult>();
        in.get(*iso);
        result.isolated = std::move(iso);
    } else if (kind == 2) {
        auto con = std::make_shared<ConcurrentResult>();
        in.get(*con);
        result.concurrent = std::move(con);
    } else if (kind != 0) {
        raiseSimError("Snapshot", journalCtx(),
                      "unknown SimResult kind byte " +
                          std::to_string(kind));
    }
    if (!r.atEnd())
        raiseSimError("Snapshot", journalCtx(),
                      "trailing bytes after SimResult payload");
    return result;
}

std::vector<std::uint8_t>
encodeSimJob(const SimJob &job)
{
    SnapshotWriter w;
    w.section("sim_job");
    JobWriter<SnapshotWriter> out{FieldWriter(w)};
    walkJob(out, job);
    return w.take();
}

namespace {

/** walkJob visitor reading encodeSimJob's bytes back; the workload
 *  is rebound to profiles the caller owns. */
struct JobReader
{
    FieldReader in;
    std::vector<KernelProfile> &profiles;

    template <class M>
    void
    operator()(M &m)
    {
        in.get(m);
    }

    void
    kernels(Workload &workload)
    {
        int n = 0;
        in.get(n);
        // Grown one decoded profile at a time, so a corrupt count
        // runs out of bytes instead of allocating; pointers are taken
        // once the vector stops moving.
        profiles.clear();
        for (int i = 0; i < n; ++i)
            in.get(profiles.emplace_back());
        workload.kernels.clear();
        for (const KernelProfile &p : profiles)
            workload.kernels.push_back(&p);
    }
};

} // namespace

SimJob
decodeSimJob(const std::vector<std::uint8_t> &bytes,
             std::vector<KernelProfile> &profiles)
{
    SnapshotReader r(bytes);
    r.section("sim_job");
    JobReader in{FieldReader(r), profiles};
    SimJob job;
    walkJob(in, job);
    if (!r.atEnd())
        raiseSimError("Snapshot", journalCtx(),
                      "trailing bytes after SimJob payload");
    return job;
}

// ---- offline integrity checking (journal_fsck) ---------------------------

const char *
journalRecordStatusName(JournalRecordStatus status)
{
    switch (status) {
      case JournalRecordStatus::Ok:
        return "ok";
      case JournalRecordStatus::BadMagic:
        return "bad-magic";
      case JournalRecordStatus::BadVersion:
        return "bad-version";
      case JournalRecordStatus::BadCrc:
        return "bad-crc";
      case JournalRecordStatus::BadPayload:
        return "bad-payload";
      case JournalRecordStatus::Torn:
        return "torn";
    }
    return "unknown";
}

namespace {

/** Read @p fd from its current offset to EOF into @p data: journals
 *  are result tables, not traces. Returns 0, or the failed read's
 *  errno. */
int
readAll(int fd, std::vector<std::uint8_t> &data)
{
    std::uint8_t chunk[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n < 0)
            return errno;
        if (n == 0)
            return 0;
        data.insert(data.end(), chunk, chunk + n);
    }
}

/**
 * The one record scanner, shared by fsckJournal and
 * ResultJournal::open. Walks @p data from offset 0 and hands every
 * intact record, with its decoded result, to @p intact. Returns the
 * first record that is not intact, where the walk stopped: there is
 * no safe way to resynchronize past it. A walk that consumed every
 * byte returns an Ok record at offset data.size().
 */
template <class OnIntact>
JournalFsckRecord
scanRecords(const std::vector<std::uint8_t> &data, OnIntact &&intact)
{
    std::size_t pos = 0;
    for (;;) {
        JournalFsckRecord rec;
        rec.offset = pos;
        const auto stop = [&rec](JournalRecordStatus status,
                                 std::string detail) {
            rec.status = status;
            rec.detail = std::move(detail);
            return rec;
        };
        const std::size_t left = data.size() - pos;
        if (left == 0)
            return rec;
        if (left < kHeaderBytes)
            // Not even a full header: a crash mid-append.
            return stop(JournalRecordStatus::Torn,
                        "only " + std::to_string(left) + " of " +
                            std::to_string(kHeaderBytes) +
                            " header bytes present");
        const std::uint8_t *h = data.data() + pos;
        if (getLE<std::uint32_t>(h) != kJournalMagic)
            return stop(JournalRecordStatus::BadMagic,
                        "record does not start with the journal "
                        "magic; the file is not a journal or an "
                        "earlier length field lied");
        const std::uint8_t version = h[4];
        rec.key = getLE<std::uint64_t>(h + 5);
        rec.payload_len = getLE<std::uint32_t>(h + 13);
        const std::uint32_t crc = getLE<std::uint32_t>(h + 17);
        if (version != kSnapshotFormatVersion)
            return stop(JournalRecordStatus::BadVersion,
                        "format version " + std::to_string(version) +
                            " (this build reads " +
                            std::to_string(kSnapshotFormatVersion) +
                            ")");
        if (left - kHeaderBytes < rec.payload_len)
            // Payload cut off at EOF: an interrupted append.
            return stop(JournalRecordStatus::Torn,
                        "payload claims " +
                            std::to_string(rec.payload_len) +
                            " bytes but only " +
                            std::to_string(left - kHeaderBytes) +
                            " remain");
        const std::uint8_t *payload = h + kHeaderBytes;
        if (crc32(payload, rec.payload_len) != crc)
            return stop(JournalRecordStatus::BadCrc,
                        "payload bytes all present but CRC32 "
                        "mismatch: flipped bits, not a torn tail");
        SimResult result;
        try {
            result = decodeSimResult(std::vector<std::uint8_t>(
                payload, payload + rec.payload_len));
        } catch (const SimError &e) {
            return stop(JournalRecordStatus::BadPayload,
                        std::string("CRC fine but SimResult decode "
                                    "failed: ") +
                            e.what());
        }
        pos += kHeaderBytes + rec.payload_len;
        intact(rec, std::move(result));
    }
}

} // namespace

JournalFsckReport
fsckJournal(const std::string &path)
{
    JournalFsckReport report;
    report.path = path;

    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        journalFail("fsck cannot open '" + path +
                    "': " + std::strerror(errno));
    std::vector<std::uint8_t> data;
    const int err = readAll(fd, data);
    ::close(fd);
    if (err != 0)
        journalFail("fsck read('" + path +
                    "') failed: " + std::strerror(err));
    report.file_bytes = data.size();

    // Key-sorted on purpose: fsck accounting must not depend on
    // hash-bucket order, and a future "dump distinct keys" walk
    // inherits a deterministic order for free.
    std::set<std::uint64_t> keys;
    JournalFsckRecord stop = scanRecords(
        data, [&](const JournalFsckRecord &rec, SimResult &&) {
            ++report.ok_records;
            keys.insert(rec.key);
            report.records.push_back(rec);
        });
    report.distinct_keys = keys.size();
    if (stop.status == JournalRecordStatus::Ok)
        return report;
    // A torn tail is a crash mid-append, which is benign; a failure on
    // bytes that are all present is hard corruption.
    if (stop.status == JournalRecordStatus::Torn)
        report.torn_bytes = data.size() - stop.offset;
    else
        report.hard_corrupt = true;
    report.records.push_back(std::move(stop));
    return report;
}

// ---- ResultJournal ------------------------------------------------------

ResultJournal::~ResultJournal()
{
    close();
}

void
ResultJournal::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
ResultJournal::open(const std::string &path)
{
    std::lock_guard<std::mutex> lk(mu_);
    close();
    records_.clear();
    end_ = 0;
    stats_ = JournalStats{};
    path_ = path;

    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0)
        journalFail("cannot open '" + path +
                    "': " + std::strerror(errno));
    try {
        std::vector<std::uint8_t> data;
        if (const int err = readAll(fd_, data); err != 0)
            journalFail("read('" + path +
                        "') failed: " + std::strerror(err));

        // Index the intact records (the scan decodes every one);
        // truncate away the first record that is not intact, and
        // everything after it.
        const JournalFsckRecord stop = scanRecords(
            data, [&](const JournalFsckRecord &rec, SimResult &&) {
                const std::uint8_t *h = data.data() + rec.offset;
                records_[rec.key] =
                    Record{rec.offset + kHeaderBytes, rec.payload_len,
                           getLE<std::uint32_t>(h + 17)};
                ++stats_.loaded;
            });
        if (stop.status == JournalRecordStatus::BadVersion &&
            stop.offset == 0)
            journalFail("'" + path + "' was written by format version " +
                        std::to_string(data[4]) + ", this build is " +
                        std::to_string(kSnapshotFormatVersion) +
                        " (delete the journal and re-run)");
        const auto end = static_cast<off_t>(stop.offset);
        if (stop.status != JournalRecordStatus::Ok) {
            stats_.truncated_bytes = data.size() - stop.offset;
            if (::ftruncate(fd_, end) != 0)
                journalFail("ftruncate('" + path +
                            "') failed: " + std::strerror(errno));
        }
        if (::lseek(fd_, end, SEEK_SET) < 0)
            journalFail("lseek('" + path +
                        "') failed: " + std::strerror(errno));
        end_ = stop.offset;
    } catch (...) {
        // A refused open leaves the journal closed and empty, so
        // append() raises instead of writing after a foreign record.
        close();
        records_.clear();
        end_ = 0;
        stats_ = JournalStats{};
        throw;
    }
}

void
ResultJournal::append(std::uint64_t key, const SimResult &result)
{
    appendPayload(key, encodeSimResult(result));
}

void
ResultJournal::appendPayload(std::uint64_t key,
                             const std::vector<std::uint8_t> &payload)
{
    const std::uint32_t crc = crc32(payload.data(), payload.size());

    std::vector<std::uint8_t> record;
    record.reserve(kHeaderBytes + payload.size());
    putLE<std::uint32_t>(record, kJournalMagic);
    record.push_back(kSnapshotFormatVersion);
    putLE<std::uint64_t>(record, key);
    putLE(record, static_cast<std::uint32_t>(payload.size()));
    putLE(record, crc);
    record.insert(record.end(), payload.begin(), payload.end());

    std::lock_guard<std::mutex> lk(mu_);
    if (fd_ < 0)
        journalFail("append to a journal that is not open");
    const Record at{end_ + kHeaderBytes,
                    static_cast<std::uint32_t>(payload.size()), crc};
    std::size_t off = 0;
    while (off < record.size()) {
        const ssize_t n =
            ::write(fd_, record.data() + off, record.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            journalFail("write('" + path_ +
                        "') failed: " + std::strerror(errno));
        }
        off += static_cast<std::size_t>(n);
        end_ += static_cast<std::uint64_t>(n);
    }
    // The write-ahead contract: the record is durable before the
    // result is handed to anyone.
    if (::fsync(fd_) != 0)
        journalFail("fsync('" + path_ +
                    "') failed: " + std::strerror(errno));
    records_[key] = at;
    ++stats_.appended;
}

bool
ResultJournal::find(std::uint64_t key, SimResult &out) const
{
    std::vector<std::uint8_t> payload;
    if (!findPayload(key, payload))
        return false;
    out = decodeSimResult(payload);
    return true;
}

bool
ResultJournal::findPayload(std::uint64_t key,
                           std::vector<std::uint8_t> &out) const
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = records_.find(key);
    if (it == records_.end())
        return false;
    const Record &rec = it->second;
    out.resize(rec.length);
    std::size_t got = 0;
    while (got < out.size()) {
        const ssize_t n =
            ::pread(fd_, out.data() + got, out.size() - got,
                    static_cast<off_t>(rec.offset + got));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            journalFail("pread('" + path_ + "') failed: " +
                        (n < 0 ? std::strerror(errno)
                               : "the record is cut off"));
        got += static_cast<std::size_t>(n);
    }
    // open() validated this record; bytes that changed since are a
    // journal edited under a running process.
    if (crc32(out.data(), out.size()) != rec.crc)
        journalFail("record for key " + std::to_string(key) + " in '" +
                    path_ + "' no longer matches its CRC32");
    return true;
}

bool
ResultJournal::contains(std::uint64_t key) const
{
    std::lock_guard<std::mutex> lk(mu_);
    return records_.count(key) != 0;
}

std::size_t
ResultJournal::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return records_.size();
}

JournalStats
ResultJournal::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

} // namespace ckesim

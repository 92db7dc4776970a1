/**
 * @file
 * journal_fsck: standalone integrity checker for result journals, the
 * sweep's (`ckesim-eval --resume`) and the campaign fleet's
 * (`ckesim-campaignd --journal`) alike. Walks the records of every
 * named file, validating magic, format version, payload CRC32 and
 * SimResult decodability, and distinguishes a benign torn tail (a
 * crash cut an append short — expected wear under the kill-soak)
 * from hard corruption (flipped bits, foreign files, undecodable
 * payloads).
 *
 * Usage:
 *   journal_fsck [options] <journal>...
 *
 *   --strict         treat torn tails as failures too
 *   --quiet          summary lines only, no per-record detail
 *
 * Exit codes: 0 = every file clean, 1 = hard corruption, an
 * unreadable file, or any torn tail under --strict, 2 = usage.
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "metrics/journal.hpp"
#include "sim/check.hpp"

namespace {

using namespace ckesim;

void
usage()
{
    std::fprintf(stderr,
                 "usage: journal_fsck [--strict] [--quiet] "
                 "<journal>...\n");
}

void
printRecord(const JournalFsckRecord &rec)
{
    std::printf("  @%-10" PRIu64 " key=%016" PRIx64
                " len=%-8" PRIu32 " %s%s%s\n",
                rec.offset, rec.key, rec.payload_len,
                journalRecordStatusName(rec.status),
                rec.detail.empty() ? "" : ": ",
                rec.detail.c_str());
}

/** Check one file; returns true when it is acceptable. */
bool
checkFile(const std::string &path, bool strict, bool quiet)
{
    JournalFsckReport report;
    try {
        report = fsckJournal(path);
    } catch (const SimError &e) {
        std::printf("%s: UNREADABLE (%s)\n", path.c_str(), e.what());
        return false;
    }
    const bool torn = report.torn_bytes > 0;
    const bool ok = report.clean() && !(strict && torn);

    std::printf("%s: %s — %" PRIu64 " record(s), %" PRIu64
                " distinct key(s), %" PRIu64 " byte(s)%s\n",
                path.c_str(),
                ok ? (torn ? "CLEAN (torn tail)" : "CLEAN")
                   : "CORRUPT",
                report.ok_records, report.distinct_keys,
                report.file_bytes,
                torn ? (", torn tail of " +
                        std::to_string(report.torn_bytes) +
                        " byte(s)")
                           .c_str()
                     : "");
    if (!quiet)
        for (const JournalFsckRecord &rec : report.records)
            if (rec.status != JournalRecordStatus::Ok || !ok)
                printRecord(rec);
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    bool strict = false;
    bool quiet = false;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--strict") {
            strict = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n",
                         arg.c_str());
            usage();
            return 2;
        } else {
            paths.push_back(arg);
        }
    }

    if (paths.empty()) {
        usage();
        return 2;
    }

    bool all_ok = true;
    for (const std::string &path : paths)
        if (!checkFile(path, strict, quiet))
            all_ok = false;
    return all_ok ? 0 : 1;
}

/**
 * @file
 * Write-ahead results journal coverage: SimResult codec round-trips,
 * append/reopen recovery, torn-tail truncation, CRC rejection of
 * corrupted records, format-version refusal, and the last-writer-wins
 * duplicate-key rule.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "metrics/journal.hpp"
#include "sim/check.hpp"

namespace ckesim {
namespace {

/** Unique temp path per test; removed on destruction. */
class TempFile
{
  public:
    explicit TempFile(const std::string &tag)
        : path_(std::string(::testing::TempDir()) + "ckesim_journal_" +
                tag + ".bin")
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

SimResult
makeIsolated(double ipc)
{
    auto iso = std::make_shared<IsolatedResult>();
    iso->ipc = ipc;
    iso->ipc_per_sm = ipc / 4;
    iso->stats.issued_instructions = 12345;
    iso->stats.l1d_misses = 67;
    iso->sm_stats.cycles = 9000;
    iso->max_tbs = 6;
    iso->mem.l2_miss_rate = 0.25;
    iso->mem.dram_row_hit_rate = 0.75;
    TimeSeries ts(Cycle{500});
    for (std::uint64_t bin = 0; bin < 4; ++bin)
        ts.record(Cycle{500 * bin}, bin + 1); // bins {1, 2, 3, 4}
    iso->issue_series.push_back(ts);
    SimResult r;
    r.isolated = std::move(iso);
    return r;
}

SimResult
makeConcurrent(const std::string &name)
{
    auto con = std::make_shared<ConcurrentResult>();
    con->workload_name = name;
    con->ipc = {1.5, 0.5};
    con->norm_ipc = {0.9, 0.4};
    con->weighted_speedup = 1.3;
    con->antt_value = 1.9;
    con->fairness = 0.44;
    con->theoretical_ws = 1.35;
    con->stats.resize(2);
    con->stats[0].mem_requests = 42;
    con->sm_stats.lsu_stall_cycles = 777;
    con->partition = {3, 5};
    con->mem.l2_miss_rate = 0.5;
    SimResult r;
    r.concurrent = std::move(con);
    return r;
}

void
expectSameBytes(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(encodeSimResult(a), encodeSimResult(b));
}

// ---- codec -------------------------------------------------------------

TEST(SimResultCodec, IsolatedRoundTripsBitExact)
{
    const SimResult orig = makeIsolated(2.875);
    const SimResult back = decodeSimResult(encodeSimResult(orig));
    ASSERT_NE(back.isolated, nullptr);
    EXPECT_EQ(back.isolated->ipc, 2.875);
    EXPECT_EQ(back.isolated->stats.issued_instructions, 12345u);
    ASSERT_EQ(back.isolated->issue_series.size(), 1u);
    EXPECT_EQ(back.isolated->issue_series[0].bins(),
              (std::vector<std::uint64_t>{1, 2, 3, 4}));
    expectSameBytes(orig, back);
}

TEST(SimResultCodec, ConcurrentRoundTripsBitExact)
{
    const SimResult orig = makeConcurrent("bp+sv");
    const SimResult back = decodeSimResult(encodeSimResult(orig));
    ASSERT_NE(back.concurrent, nullptr);
    EXPECT_EQ(back.concurrent->workload_name, "bp+sv");
    EXPECT_EQ(back.concurrent->partition, (std::vector<int>{3, 5}));
    EXPECT_EQ(back.concurrent->sm_stats.lsu_stall_cycles, 777u);
    expectSameBytes(orig, back);
}

TEST(SimResultCodec, RejectsTruncatedPayload)
{
    std::vector<std::uint8_t> bytes =
        encodeSimResult(makeConcurrent("x+y"));
    bytes.resize(bytes.size() / 2);
    EXPECT_THROW(decodeSimResult(bytes), SimError);
}

// ---- journal persistence -----------------------------------------------

TEST(ResultJournal, AppendsAndReloadsAcrossReopen)
{
    TempFile tmp("reload");
    {
        ResultJournal j;
        j.open(tmp.path());
        EXPECT_EQ(j.size(), 0u);
        j.append(1, makeIsolated(1.0));
        j.append(2, makeConcurrent("bp+sv"));
        EXPECT_EQ(j.stats().appended, 2u);
    }
    ResultJournal j;
    j.open(tmp.path());
    EXPECT_EQ(j.size(), 2u);
    EXPECT_EQ(j.stats().loaded, 2u);
    EXPECT_EQ(j.stats().truncated_bytes, 0u);
    SimResult out;
    ASSERT_TRUE(j.find(1, out));
    expectSameBytes(out, makeIsolated(1.0));
    ASSERT_TRUE(j.find(2, out));
    expectSameBytes(out, makeConcurrent("bp+sv"));
    EXPECT_FALSE(j.find(3, out));
}

TEST(ResultJournal, DuplicateKeyLastWriterWins)
{
    TempFile tmp("dup");
    {
        ResultJournal j;
        j.open(tmp.path());
        j.append(7, makeIsolated(1.0));
        j.append(7, makeIsolated(2.0));
    }
    ResultJournal j;
    j.open(tmp.path());
    EXPECT_EQ(j.size(), 1u);
    SimResult out;
    ASSERT_TRUE(j.find(7, out));
    EXPECT_EQ(out.isolated->ipc, 2.0);
}

TEST(ResultJournal, TornTailIsTruncatedAndIntactRecordsSurvive)
{
    TempFile tmp("torn");
    long keep = 0;
    {
        ResultJournal j;
        j.open(tmp.path());
        j.append(1, makeIsolated(1.0));
    }
    {
        std::FILE *f = std::fopen(tmp.path().c_str(), "rb");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        keep = std::ftell(f);
        std::fclose(f);
    }
    {
        ResultJournal j;
        j.open(tmp.path());
        j.append(2, makeConcurrent("bp+sv"));
    }
    // Simulate a kill mid-append: chop the second record in half.
    {
        std::FILE *f = std::fopen(tmp.path().c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        const long full = std::ftell(f);
        std::fclose(f);
        ASSERT_EQ(truncate(tmp.path().c_str(),
                           keep + (full - keep) / 2),
                  0);
    }
    ResultJournal j;
    j.open(tmp.path());
    EXPECT_EQ(j.size(), 1u);
    EXPECT_GT(j.stats().truncated_bytes, 0u);
    SimResult out;
    EXPECT_TRUE(j.find(1, out));
    EXPECT_FALSE(j.find(2, out));

    // The truncated journal is append-ready again.
    j.append(2, makeConcurrent("bp+sv"));
    ResultJournal j2;
    j2.open(tmp.path());
    EXPECT_EQ(j2.size(), 2u);
    EXPECT_EQ(j2.stats().truncated_bytes, 0u);
}

TEST(ResultJournal, CorruptedRecordIsDroppedByCrc)
{
    TempFile tmp("crc");
    {
        ResultJournal j;
        j.open(tmp.path());
        j.append(1, makeIsolated(1.0));
        j.append(2, makeIsolated(2.0));
    }
    // Flip one payload byte of the LAST record: its CRC fails, the
    // record (and everything after it) is discarded, record 1 stays.
    {
        std::FILE *f = std::fopen(tmp.path().c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        std::fseek(f, -1, SEEK_END);
        const int c = std::fgetc(f);
        std::fseek(f, -1, SEEK_END);
        std::fputc(c ^ 0xff, f);
        std::fclose(f);
    }
    ResultJournal j;
    j.open(tmp.path());
    EXPECT_EQ(j.size(), 1u);
    EXPECT_GT(j.stats().truncated_bytes, 0u);
    SimResult out;
    EXPECT_TRUE(j.find(1, out));
    EXPECT_FALSE(j.find(2, out));
}

TEST(ResultJournal, ForeignFormatVersionIsRefused)
{
    TempFile tmp("version");
    {
        ResultJournal j;
        j.open(tmp.path());
        j.append(1, makeIsolated(1.0));
    }
    // Corrupt the version byte of the first record (offset 4, after
    // the magic): the whole file belongs to another format — refuse
    // loudly rather than silently discarding everything.
    {
        std::FILE *f = std::fopen(tmp.path().c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 4, SEEK_SET);
        std::fputc(kSnapshotFormatVersion + 1, f);
        std::fclose(f);
    }
    ResultJournal j;
    try {
        j.open(tmp.path());
        FAIL() << "open accepted a foreign format version";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), "Journal") << e.what();
    }
}

TEST(ResultJournal, OpenFailsOnUnwritablePath)
{
    ResultJournal j;
    EXPECT_THROW(j.open("/nonexistent-dir/journal.bin"), SimError);
    EXPECT_FALSE(j.isOpen());
}

} // namespace
} // namespace ckesim

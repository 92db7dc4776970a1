/**
 * @file
 * Unit tests for the set-associative tag array: LRU replacement,
 * allocate-on-miss reservation, way restrictions (UCP) and owner
 * tracking, and a randomized check of the row layout against a
 * reference array of CacheLine records.
 */

#include <gtest/gtest.h>

#include "mem/cache.hpp"
#include "sim/rng.hpp"
#include "sim/snapshot.hpp"

namespace ckesim {
namespace {

/** Lines that all land in the same set of a 64-set array. */
LineAddr
sameSetLine(int num_sets, int set, int i)
{
    // Scan for the i-th line mapping to `set`.
    int found = 0;
    for (LineAddr line{};; ++line) {
        if (xorSetIndex(line, num_sets) == set) {
            if (found == i)
                return line;
            ++found;
        }
    }
}

TEST(CacheArray, ProbeMissOnEmpty)
{
    CacheArray c(64, 4);
    EXPECT_EQ(c.probe(LineAddr{123}), -1);
}

TEST(CacheArray, InstallThenHit)
{
    CacheArray c(64, 4);
    const LineAddr line{777};
    VictimResult v = c.chooseVictim(line, KernelId{0});
    ASSERT_TRUE(v.ok);
    c.install(c.setIndex(line), v.way, line, KernelId{0}, false);
    EXPECT_EQ(c.probe(line), v.way);
}

TEST(CacheArray, LruEvictsOldest)
{
    CacheArray c(64, 2);
    const int set = 5;
    const LineAddr a = sameSetLine(64, set, 0);
    const LineAddr b = sameSetLine(64, set, 1);
    const LineAddr d = sameSetLine(64, set, 2);

    VictimResult v = c.chooseVictim(a, KernelId{0});
    c.install(set, v.way, a, KernelId{0}, false);
    v = c.chooseVictim(b, KernelId{0});
    c.install(set, v.way, b, KernelId{0}, false);

    // Touch a so b is LRU.
    c.touch(set, c.probe(a));
    v = c.chooseVictim(d, KernelId{0});
    ASSERT_TRUE(v.ok);
    EXPECT_EQ(v.way, c.probe(b));
}

TEST(CacheArray, ReservedLinesAreNotVictims)
{
    CacheArray c(64, 2);
    const int set = 3;
    const LineAddr a = sameSetLine(64, set, 0);
    const LineAddr b = sameSetLine(64, set, 1);
    const LineAddr d = sameSetLine(64, set, 2);

    VictimResult v = c.chooseVictim(a, KernelId{0});
    c.reserve(set, v.way, a, KernelId{0});
    v = c.chooseVictim(b, KernelId{0});
    c.reserve(set, v.way, b, KernelId{0});

    // Both ways reserved: reservation failure.
    v = c.chooseVictim(d, KernelId{0});
    EXPECT_FALSE(v.ok);

    // Fill one; it becomes evictable again.
    c.fill(set, c.probe(a));
    v = c.chooseVictim(d, KernelId{0});
    ASSERT_TRUE(v.ok);
    EXPECT_EQ(v.way, c.probe(a));
}

TEST(CacheArray, FillMakesLineValid)
{
    CacheArray c(64, 4);
    const LineAddr line{42};
    VictimResult v = c.chooseVictim(line, KernelId{1});
    c.reserve(c.setIndex(line), v.way, line, KernelId{1});
    EXPECT_FALSE(c.isValid(c.setIndex(line), v.way));
    EXPECT_TRUE(c.isReserved(c.setIndex(line), v.way));
    c.fill(c.setIndex(line), v.way);
    const CacheLine l = c.line(c.setIndex(line), v.way);
    EXPECT_TRUE(l.valid);
    EXPECT_FALSE(l.reserved);
    EXPECT_EQ(l.owner, KernelId{1});
}

TEST(CacheArray, DirtyEvictionReported)
{
    CacheArray c(64, 1);
    const int set = 9;
    const LineAddr a = sameSetLine(64, set, 0);
    const LineAddr b = sameSetLine(64, set, 1);
    VictimResult v = c.chooseVictim(a, KernelId{0});
    c.install(set, v.way, a, KernelId{0}, /*dirty=*/true);
    v = c.chooseVictim(b, KernelId{0});
    ASSERT_TRUE(v.ok);
    EXPECT_TRUE(v.evicted_dirty);
    EXPECT_EQ(v.evicted_line, a);
}

TEST(CacheArray, InvalidateFreesWay)
{
    CacheArray c(64, 2);
    const LineAddr line{55};
    VictimResult v = c.chooseVictim(line, KernelId{0});
    c.install(c.setIndex(line), v.way, line, KernelId{0}, false);
    c.invalidate(c.setIndex(line), c.probe(line));
    EXPECT_EQ(c.probe(line), -1);
}

TEST(CacheArray, WayRestrictionsConfineVictims)
{
    CacheArray c(64, 4);
    c.restrictToWays(KernelId{0}, 0, 2); // kernel 0 -> ways [0,2)
    c.restrictToWays(KernelId{1}, 2, 2); // kernel 1 -> ways [2,4)
    const LineAddr line{1234};
    for (int i = 0; i < 10; ++i) {
        VictimResult v = c.chooseVictim(line + 64 * i, KernelId{0});
        ASSERT_TRUE(v.ok);
        EXPECT_LT(v.way, 2);
        v = c.chooseVictim(line + 64 * i, KernelId{1});
        ASSERT_TRUE(v.ok);
        EXPECT_GE(v.way, 2);
    }
}

TEST(CacheArray, WayRestrictionDoesNotBlockLookups)
{
    CacheArray c(64, 4);
    c.restrictToWays(KernelId{0}, 0, 2);
    c.restrictToWays(KernelId{1}, 2, 2);
    const LineAddr line{321};
    VictimResult v = c.chooseVictim(line, KernelId{1});
    c.install(c.setIndex(line), v.way, line, KernelId{1}, false);
    // Kernel 0 still *sees* kernel 1's line (UCP partitions
    // allocation, not visibility).
    EXPECT_GE(c.probe(line), 0);
}

TEST(CacheArray, ClearWayRestrictions)
{
    CacheArray c(64, 4);
    c.restrictToWays(KernelId{0}, 0, 1);
    c.clearWayRestrictions();
    bool saw_upper_way = false;
    for (int i = 0; i < 4; ++i) {
        const LineAddr line = sameSetLine(64, /*set=*/7, i);
        VictimResult v = c.chooseVictim(line, KernelId{0});
        ASSERT_TRUE(v.ok);
        c.install(c.setIndex(line), v.way, line, KernelId{0}, false);
        if (v.way > 0)
            saw_upper_way = true;
    }
    EXPECT_TRUE(saw_upper_way);
}

TEST(CacheArray, FullWidthRestrictionMeansUnrestricted)
{
    CacheArray c(64, 4);
    c.restrictToWays(KernelId{0}, 0, 4);
    const LineAddr line{99};
    VictimResult v = c.chooseVictim(line, KernelId{0});
    EXPECT_TRUE(v.ok);
}

TEST(CacheArray, OccupancyPerKernel)
{
    CacheArray c(64, 4);
    for (int i = 0; i < 6; ++i) {
        const LineAddr line{static_cast<std::uint64_t>(i) * 64 + 1};
        const KernelId owner{i % 2};
        VictimResult v = c.chooseVictim(line, owner);
        c.install(c.setIndex(line), v.way, line, owner, false);
    }
    EXPECT_EQ(c.occupancyOf(KernelId{0}), 3);
    EXPECT_EQ(c.occupancyOf(KernelId{1}), 3);
    EXPECT_EQ(c.occupancyOf(KernelId{2}), 0);
}

// ---- oracle: the row layout against CacheLine records ------------------

/** The tag array as one CacheLine record per way, and its state walk. */
class RefCache
{
  public:
    RefCache(int num_sets, int assoc)
        : num_sets_(num_sets), assoc_(assoc),
          lines_(static_cast<std::size_t>(num_sets * assoc))
    {
    }

    CacheLine &line(int set, int way)
    {
        return lines_[static_cast<std::size_t>(set * assoc_ + way)];
    }

    int
    probe(LineAddr la)
    {
        const int set = xorSetIndex(la, num_sets_);
        for (int w = 0; w < assoc_; ++w) {
            const CacheLine &l = line(set, w);
            if ((l.valid || l.reserved) && l.line_addr == la)
                return w;
        }
        return -1;
    }

    bool
    wayAllowed(KernelId kernel, int way) const
    {
        if (!kernel.valid() || kernel.idx() >= restrictions_.size())
            return true;
        const auto [first, count] = restrictions_[kernel.idx()];
        return count == 0 || (way >= first && way < first + count);
    }

    VictimResult
    chooseVictim(LineAddr la, KernelId kernel)
    {
        const int set = xorSetIndex(la, num_sets_);
        VictimResult res;
        for (int w = 0; w < assoc_; ++w) {
            const CacheLine &l = line(set, w);
            if (!l.valid && !l.reserved && wayAllowed(kernel, w)) {
                res.ok = true;
                res.way = w;
                return res;
            }
        }
        int best = -1;
        std::uint64_t best_lru = 0;
        for (int w = 0; w < assoc_; ++w) {
            const CacheLine &l = line(set, w);
            if (l.reserved || !wayAllowed(kernel, w))
                continue;
            if (best < 0 || l.lru < best_lru) {
                best = w;
                best_lru = l.lru;
            }
        }
        if (best < 0)
            return res;
        res.ok = true;
        res.way = best;
        const CacheLine &victim = line(set, best);
        if (victim.valid && victim.dirty) {
            res.evicted_dirty = true;
            res.evicted_line = victim.line_addr;
        }
        return res;
    }

    void
    reserve(int set, int way, LineAddr la, KernelId kernel)
    {
        line(set, way) = CacheLine{la, false, true, false, kernel, ++tick_};
    }

    void
    fill(int set, int way, bool dirty)
    {
        CacheLine &l = line(set, way);
        l.reserved = false;
        l.valid = true;
        l.dirty = dirty;
        l.lru = ++tick_;
    }

    void
    install(int set, int way, LineAddr la, KernelId kernel, bool dirty)
    {
        line(set, way) = CacheLine{la, true, false, dirty, kernel, ++tick_};
    }

    void
    invalidate(int set, int way)
    {
        CacheLine &l = line(set, way);
        l.valid = l.reserved = l.dirty = false;
    }

    void touch(int set, int way) { line(set, way).lru = ++tick_; }

    void
    restrictToWays(KernelId kernel, int first, int count)
    {
        if (kernel.idx() >= restrictions_.size())
            restrictions_.resize(kernel.idx() + 1);
        restrictions_[kernel.idx()] =
            count >= assoc_ ? std::pair{0, 0} : std::pair{first, count};
    }

    void clearWayRestrictions() { restrictions_.clear(); }

    int
    occupancyOf(KernelId kernel) const
    {
        int n = 0;
        for (const CacheLine &l : lines_)
            n += l.valid && l.owner == kernel ? 1 : 0;
        return n;
    }

    /** What CacheArray::state writes, one record after another. */
    std::vector<std::uint8_t>
    snapshot() const
    {
        SnapshotWriter w;
        w.section("cache_array");
        w.u64(lines_.size());
        for (const CacheLine &l : lines_) {
            w.unit(l.line_addr);
            w.boolean(l.valid);
            w.boolean(l.reserved);
            w.boolean(l.dirty);
            w.id(l.owner);
            w.u64(l.lru);
        }
        w.u64(tick_);
        w.u64(restrictions_.size());
        for (const auto &[first, count] : restrictions_) {
            w.i64(first);
            w.i64(count);
        }
        return w.bytes();
    }

  private:
    int num_sets_;
    int assoc_;
    std::vector<CacheLine> lines_;
    std::uint64_t tick_ = 0;
    std::vector<std::pair<int, int>> restrictions_;
};

std::vector<std::uint8_t>
snapshotOf(const CacheArray &c)
{
    SnapshotWriter w;
    CacheArray::state(w, c);
    return w.bytes();
}

void
expectSameLines(const CacheArray &c, RefCache &ref)
{
    for (int set = 0; set < c.numSets(); ++set) {
        for (int way = 0; way < c.assoc(); ++way) {
            const CacheLine got = c.line(set, way);
            const CacheLine &want = ref.line(set, way);
            ASSERT_EQ(got.line_addr, want.line_addr);
            ASSERT_EQ(got.valid, want.valid);
            ASSERT_EQ(got.reserved, want.reserved);
            ASSERT_EQ(got.dirty, want.dirty);
            ASSERT_EQ(got.owner, want.owner);
            ASSERT_EQ(got.lru, want.lru);
            ASSERT_EQ(c.isValid(set, way), want.valid);
            ASSERT_EQ(c.isReserved(set, way), want.reserved);
        }
    }
}

TEST(CacheArrayOracle, RandomOpsMatchRecordLayout)
{
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        constexpr int kSets = 8;
        constexpr int kWays = 4;
        CacheArray c(kSets, kWays);
        RefCache ref(kSets, kWays);
        Rng rng(seed);
        // 48 lines over 8 sets keep every set contended.
        auto anyLine = [&] { return LineAddr{rng.nextBelow(48)}; };
        auto anyKernel = [&] {
            return KernelId{static_cast<int>(rng.nextBelow(3))};
        };
        auto anyWay = [&] {
            return static_cast<int>(rng.nextBelow(kWays));
        };
        for (int op = 0; op < 20000; ++op) {
            const LineAddr la = anyLine();
            const int set = c.setIndex(la);
            switch (rng.nextBelow(9)) {
              case 0:
              case 1: { // allocate on miss, as the L1D does
                  const KernelId k = anyKernel();
                  ASSERT_EQ(c.probe(la), ref.probe(la));
                  if (c.probe(la) >= 0)
                      break;
                  const VictimResult got = c.chooseVictim(la, k);
                  const VictimResult want = ref.chooseVictim(la, k);
                  ASSERT_EQ(got.ok, want.ok);
                  ASSERT_EQ(got.way, want.way);
                  ASSERT_EQ(got.evicted_dirty, want.evicted_dirty);
                  ASSERT_EQ(got.evicted_line, want.evicted_line);
                  if (got.ok) {
                      c.reserve(set, got.way, la, k);
                      ref.reserve(set, got.way, la, k);
                  }
                  break;
              }
              case 2: { // install, as a write-allocate would
                  const KernelId k = anyKernel();
                  const VictimResult got = c.chooseVictim(la, k);
                  const VictimResult want = ref.chooseVictim(la, k);
                  ASSERT_EQ(got.ok, want.ok);
                  ASSERT_EQ(got.way, want.way);
                  ASSERT_EQ(got.evicted_dirty, want.evicted_dirty);
                  ASSERT_EQ(got.evicted_line, want.evicted_line);
                  if (got.ok) {
                      const bool dirty = rng.nextBelow(2) == 1;
                      c.install(set, got.way, la, k, dirty);
                      ref.install(set, got.way, la, k, dirty);
                  }
                  break;
              }
              case 3: { // fill a reserved way
                  const int way = anyWay();
                  ASSERT_EQ(c.isReserved(set, way),
                            ref.line(set, way).reserved);
                  if (c.isReserved(set, way)) {
                      const bool dirty = rng.nextBelow(2) == 1;
                      c.fill(set, way, dirty);
                      ref.fill(set, way, dirty);
                  }
                  break;
              }
              case 4: {
                  const int way = anyWay();
                  c.invalidate(set, way);
                  ref.invalidate(set, way);
                  break;
              }
              case 5: { // hit: touch, sometimes a write-back write
                  const int way = c.probe(la);
                  ASSERT_EQ(way, ref.probe(la));
                  if (way >= 0 && c.isValid(set, way)) {
                      c.touch(set, way);
                      ref.touch(set, way);
                      if (rng.nextBelow(2) == 1) {
                          c.markDirty(set, way);
                          ref.line(set, way).dirty = true;
                      }
                  }
                  break;
              }
              case 6: {
                  const KernelId k = anyKernel();
                  const int first = anyWay();
                  const int count = static_cast<int>(
                      rng.nextBelow(kWays - first + 1));
                  c.restrictToWays(k, first, count);
                  ref.restrictToWays(k, first, count);
                  break;
              }
              case 7:
                  if (rng.nextBelow(8) == 0) {
                      c.clearWayRestrictions();
                      ref.clearWayRestrictions();
                  }
                  break;
              default:
                  for (int k = 0; k < 4; ++k)
                      ASSERT_EQ(c.occupancyOf(KernelId{k}),
                                ref.occupancyOf(KernelId{k}));
                  break;
            }
            if (op % 997 == 0) {
                expectSameLines(c, ref);
                ASSERT_EQ(snapshotOf(c), ref.snapshot());
            }
        }
        expectSameLines(c, ref);
        const std::vector<std::uint8_t> bytes = snapshotOf(c);
        ASSERT_EQ(bytes, ref.snapshot());

        // The walk reads back into the rows it came from.
        CacheArray back(kSets, kWays);
        SnapshotReader r(bytes);
        CacheArray::state(r, back);
        EXPECT_TRUE(r.atEnd());
        expectSameLines(back, ref);
        EXPECT_EQ(snapshotOf(back), bytes);
    }
}

} // namespace
} // namespace ckesim

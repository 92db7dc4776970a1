/**
 * @file
 * Unit tests for procedural address generation: determinism, target
 * coalescing degree, footprint confinement and reuse behaviour, and an
 * oracle check of the emitted lines against the per-thread address
 * expansion plus coalescing they stand for.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "kernels/addrgen.hpp"
#include "mem/address.hpp"

namespace ckesim {
namespace {

constexpr int kLine = 64;
constexpr int kSimd = 32;

AddrGenState
makeState(const KernelProfile &p, int warp = 0, std::uint64_t tb = 0,
          int simd = kSimd, int line_bytes = kLine)
{
    AddrGenState st;
    initAddrGen(st, p, KernelId{0}, tb, warp, p.warpsPerTb(simd),
                /*seed=*/42, line_bytes);
    return st;
}

// ---- reference: per-thread byte addresses, then coalescing -------------

/**
 * The generator as it stood when it emitted one byte address per
 * thread: the same draws, then the r lines spread over the warp's
 * threads in contiguous blocks, each thread 4 bytes into its line.
 */
std::vector<Addr>
referenceThreadAddrs(AddrGenState &st, const KernelProfile &prof,
                     int line_bytes, int simd_width)
{
    constexpr int kReuseWindow = 2;
    const int r = std::max(1, std::min(prof.req_per_minst, simd_width));
    std::vector<std::uint64_t> lines(static_cast<std::size_t>(r));
    const int skip = std::min(r * prof.mlp,
                              AddrGenState::kRingSize -
                                  kReuseWindow - 2 * r - 1);
    const int window = std::min(st.ring_count - skip,
                                std::max(kReuseWindow, 2 * r));
    std::uint64_t random_run_next = 0;
    bool random_run_live = false;
    auto fresh_line = [&]() -> std::uint64_t {
        switch (prof.pattern) {
          case AccessPattern::Streaming:
          case AccessPattern::TiledReuse: {
            const std::uint64_t step =
                st.stream_cursor * st.stream_stride + st.stream_offset;
            ++st.stream_cursor;
            return st.stream_base_line + (step % st.stream_region_lines);
          }
          case AccessPattern::RandomFootprint:
            if (!random_run_live) {
                random_run_next = st.rng.nextBelow(st.footprint_lines);
                random_run_live = true;
            }
            return st.footprint_base_line +
                   (random_run_next++ % st.footprint_lines);
          case AccessPattern::StridedScatter:
            return st.footprint_base_line +
                   st.rng.nextBelow(st.footprint_lines);
        }
        return st.footprint_base_line;
    };
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (window > 0 && st.rng.nextDouble() < prof.reuse_prob) {
            const int back = skip + 1 +
                             static_cast<int>(st.rng.nextBelow(
                                 static_cast<std::uint64_t>(window)));
            const int pos = (st.ring_pos - back +
                             2 * AddrGenState::kRingSize) %
                            AddrGenState::kRingSize;
            lines[i] = st.ring[static_cast<std::size_t>(pos)];
        } else {
            lines[i] = fresh_line();
            st.ring[static_cast<std::size_t>(st.ring_pos)] = lines[i];
            st.ring_pos = (st.ring_pos + 1) % AddrGenState::kRingSize;
            if (st.ring_count < AddrGenState::kRingSize)
                ++st.ring_count;
        }
    }
    std::vector<Addr> addrs;
    for (int t = 0; t < simd_width; ++t) {
        const auto li = static_cast<std::size_t>(t * r / simd_width);
        addrs.push_back(Addr{
            lines[li] * static_cast<std::uint64_t>(line_bytes) +
            static_cast<std::uint64_t>((t * 4) % line_bytes)});
    }
    return addrs;
}

/** Unique lines of @p addrs in first-touch order. */
std::vector<LineAddr>
referenceCoalesce(const std::vector<Addr> &addrs, int line_bytes)
{
    std::vector<LineAddr> out;
    for (Addr a : addrs) {
        const LineAddr line = toLineAddr(a, line_bytes);
        if (std::find(out.begin(), out.end(), line) == out.end())
            out.push_back(line);
    }
    return out;
}

void
expectSameState(const AddrGenState &a, const AddrGenState &b)
{
    EXPECT_EQ(a.stream_cursor, b.stream_cursor);
    EXPECT_EQ(a.ring, b.ring);
    EXPECT_EQ(a.ring_count, b.ring_count);
    EXPECT_EQ(a.ring_pos, b.ring_pos);
    Rng ra = a.rng;
    Rng rb = b.rng;
    EXPECT_EQ(ra.next(), rb.next()); // the same number of draws
}

TEST(AddrGenOracle, LinesMatchCoalescedThreadAddresses)
{
    for (const KernelProfile &p : benchmarkSuite()) {
        for (const int simd : {8, 16, 32, 64}) {
            for (const int line_bytes : {64, 128}) {
                SCOPED_TRACE(p.name + " simd " + std::to_string(simd) +
                             " line " + std::to_string(line_bytes));
                AddrGenState st = makeState(p, 1, 7, simd, line_bytes);
                AddrGenState ref = st;
                std::vector<LineAddr> lines;
                for (int i = 0; i < 400; ++i) {
                    generateAccess(st, p, simd, lines);
                    const std::vector<LineAddr> want = referenceCoalesce(
                        referenceThreadAddrs(ref, p, line_bytes, simd),
                        line_bytes);
                    ASSERT_EQ(lines, want) << "instruction " << i;
                }
                expectSameState(st, ref);
            }
        }
    }
}

TEST(AddrGenOracle, MoreRequestsThanThirtyTwoLines)
{
    // A 64-thread warp may coalesce into more than 32 lines.
    for (const char *name : {"ks", "sv", "bs"}) {
        KernelProfile p = findProfile(name);
        p.req_per_minst = 40;
        SCOPED_TRACE(name);
        AddrGenState st = makeState(p, 0, 3, 64);
        AddrGenState ref = st;
        std::vector<LineAddr> lines;
        std::size_t most = 0;
        for (int i = 0; i < 200; ++i) {
            generateAccess(st, p, 64, lines);
            ASSERT_EQ(lines, referenceCoalesce(
                                 referenceThreadAddrs(ref, p, kLine, 64),
                                 kLine));
            most = std::max(most, lines.size());
        }
        EXPECT_EQ(most, 40u);
        expectSameState(st, ref);
    }
}

// ---- properties of the emitted lines -----------------------------------

TEST(AddrGen, DeterministicAcrossRuns)
{
    const KernelProfile &p = findProfile("sv");
    AddrGenState a = makeState(p);
    AddrGenState b = makeState(p);
    std::vector<LineAddr> va, vb;
    for (int i = 0; i < 100; ++i) {
        generateAccess(a, p, kSimd, va);
        generateAccess(b, p, kSimd, vb);
        ASSERT_EQ(va, vb);
    }
}

TEST(AddrGen, CoalescesToReqPerMinst)
{
    for (const char *name : {"bp", "sv", "ks", "ax", "bs"}) {
        const KernelProfile &p = findProfile(name);
        AddrGenState st = makeState(p);
        std::vector<LineAddr> lines;
        std::uint64_t total = 0;
        const int n = 300;
        for (int i = 0; i < n; ++i) {
            generateAccess(st, p, kSimd, lines);
            total += lines.size();
            ASSERT_LE(static_cast<int>(lines.size()),
                      p.req_per_minst);
            ASSERT_EQ(std::set<LineAddr>(lines.begin(), lines.end())
                          .size(),
                      lines.size());
        }
        const double avg = static_cast<double>(total) / n;
        // Reuse collisions can shave a little off the target.
        EXPECT_GT(avg, 0.6 * p.req_per_minst) << name;
        EXPECT_LE(avg, 1.0 * p.req_per_minst) << name;
    }
}

TEST(AddrGen, KernelSlotsAreDisjoint)
{
    const KernelProfile &p = findProfile("bs");
    AddrGenState a, b;
    initAddrGen(a, p, KernelId{0}, 0, 0, 16, 42, kLine);
    initAddrGen(b, p, KernelId{1}, 0, 0, 16, 42, kLine);
    std::set<LineAddr> seen_a;
    std::vector<LineAddr> lines;
    for (int i = 0; i < 200; ++i) {
        generateAccess(a, p, kSimd, lines);
        seen_a.insert(lines.begin(), lines.end());
    }
    for (int i = 0; i < 200; ++i) {
        generateAccess(b, p, kSimd, lines);
        for (LineAddr x : lines)
            ASSERT_EQ(seen_a.count(x), 0u);
    }
}

TEST(AddrGen, FootprintConfinesRandomPatterns)
{
    const KernelProfile &p = findProfile("ks"); // StridedScatter
    AddrGenState st = makeState(p);
    std::vector<LineAddr> lines;
    LineAddr mn = LineAddr::max(), mx{};
    for (int i = 0; i < 500; ++i) {
        generateAccess(st, p, kSimd, lines);
        for (LineAddr a : lines) {
            mn = std::min(mn, a);
            mx = std::max(mx, a);
        }
    }
    EXPECT_LE((mx - mn).get(),
              p.footprint_bytes / static_cast<std::uint64_t>(kLine));
}

TEST(AddrGen, StreamingAdvancesThroughRegion)
{
    const KernelProfile &p = findProfile("bs"); // pure streaming
    AddrGenState st = makeState(p);
    std::vector<LineAddr> lines;
    std::set<LineAddr> firsts;
    const int n = 400;
    for (int i = 0; i < n; ++i) {
        generateAccess(st, p, kSimd, lines);
        firsts.insert(lines.front());
    }
    // No reuse: every instruction touches a fresh line.
    EXPECT_EQ(firsts.size(), static_cast<std::size_t>(n));
}

TEST(AddrGen, TbWarpsInterleaveOneRegion)
{
    // Warps of one TB must jointly cover contiguous lines (the DRAM
    // row locality property).
    const KernelProfile &p = findProfile("bs");
    const int warps = p.warpsPerTb(kSimd);
    std::vector<AddrGenState> sts;
    for (int w = 0; w < warps; ++w)
        sts.push_back(makeState(p, w, /*tb=*/5));
    std::set<LineAddr> firsts;
    std::vector<LineAddr> lines;
    for (int w = 0; w < warps; ++w) {
        generateAccess(sts[static_cast<std::size_t>(w)], p, kSimd,
                       lines);
        firsts.insert(lines.front());
    }
    ASSERT_EQ(firsts.size(), static_cast<std::size_t>(warps));
    // Contiguous run of `warps` lines.
    EXPECT_EQ(*firsts.rbegin() - *firsts.begin(),
              LineAddr{warps - 1});
}

TEST(AddrGen, HighReuseRevisitsLines)
{
    const KernelProfile &p = findProfile("dc"); // reuse 0.91
    AddrGenState st = makeState(p);
    std::vector<LineAddr> lines;
    std::set<LineAddr> seen;
    const int n = 500;
    for (int i = 0; i < n; ++i) {
        generateAccess(st, p, kSimd, lines);
        seen.insert(lines.begin(), lines.end());
    }
    // Heavy reuse => far fewer distinct lines than instructions.
    EXPECT_LT(seen.size(), static_cast<std::size_t>(n / 2));
}

TEST(AddrGen, DistinctWarpsDistinctStreams)
{
    const KernelProfile &p = findProfile("sv");
    AddrGenState a = makeState(p, 0);
    AddrGenState b = makeState(p, 1);
    std::vector<LineAddr> va, vb;
    generateAccess(a, p, kSimd, va);
    generateAccess(b, p, kSimd, vb);
    EXPECT_NE(va, vb);
}

} // namespace
} // namespace ckesim

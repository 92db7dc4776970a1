/**
 * @file
 * Unit tests for GTO and LRR warp schedulers, and a seeded randomized
 * check of the bitset pick against a per-slot predicate oracle.
 */

#include <gtest/gtest.h>

#include <functional>

#include "sim/rng.hpp"
#include "sm/scheduler.hpp"

namespace ckesim {
namespace {

using SlotPred = std::function<bool(WarpSlot)>;

/** Eligible set of @p sched: bit j set iff @p ok(slots()[j]). */
std::vector<std::uint64_t>
eligible(const WarpScheduler &sched, const SlotPred &ok)
{
    std::vector<std::uint64_t> mask(sched.maskWords(), 0);
    for (std::size_t j = 0; j < sched.slots().size(); ++j)
        if (ok(sched.slots()[j]))
            mask[j / 64] |= std::uint64_t{1} << (j % 64);
    return mask;
}

bool all(WarpSlot) { return true; }

std::vector<std::uint64_t>
ascendingAges(int n)
{
    std::vector<std::uint64_t> ages(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        ages[static_cast<std::size_t>(i)] = static_cast<std::uint64_t>(i);
    return ages;
}

TEST(Scheduler, SlotsAreStriped)
{
    WarpScheduler s0(0, 4, 16, SchedPolicy::GTO);
    WarpScheduler s1(1, 4, 16, SchedPolicy::GTO);
    EXPECT_EQ(s0.slots(),
              (std::vector<WarpSlot>{WarpSlot{0}, WarpSlot{4},
                                     WarpSlot{8}, WarpSlot{12}}));
    EXPECT_EQ(s1.slots(),
              (std::vector<WarpSlot>{WarpSlot{1}, WarpSlot{5},
                                     WarpSlot{9}, WarpSlot{13}}));
    EXPECT_EQ(s1.bitOf(WarpSlot{9}), 2u);
    EXPECT_EQ(s1.maskWords(), 1u);
    EXPECT_EQ(WarpScheduler(0, 1, 65, SchedPolicy::GTO).maskWords(), 2u);
}

TEST(Scheduler, GtoPicksOldestFirst)
{
    WarpScheduler sched(0, 1, 4, SchedPolicy::GTO);
    const std::vector<std::uint64_t> ages{30, 10, 20, 40}; // 1 oldest
    EXPECT_EQ(sched.pick(eligible(sched, all), ages), WarpSlot{1});
}

TEST(Scheduler, GtoIsGreedy)
{
    WarpScheduler sched(0, 1, 4, SchedPolicy::GTO);
    const std::vector<std::uint64_t> ages{10, 20, 5, 30}; // 2 oldest
    WarpSlot pick = sched.pick(eligible(sched, all), ages);
    EXPECT_EQ(pick, WarpSlot{2});
    sched.onIssue(pick);
    // Stays on warp 2 while it remains issuable.
    pick = sched.pick(eligible(sched, all), ages);
    EXPECT_EQ(pick, WarpSlot{2});
    // When 2 blocks, falls back to the next oldest.
    pick = sched.pick(
        eligible(sched, [](WarpSlot s) { return s != WarpSlot{2}; }),
        ages);
    EXPECT_EQ(pick, WarpSlot{0});
}

TEST(Scheduler, GtoReturnsMinusOneWhenNothingIssuable)
{
    WarpScheduler sched(0, 1, 4, SchedPolicy::GTO);
    EXPECT_EQ(sched.pick(eligible(sched, [](WarpSlot) { return false; }),
                         ascendingAges(4)),
              kInvalidWarpSlot);
}

TEST(Scheduler, LrrRotates)
{
    WarpScheduler sched(0, 1, 4, SchedPolicy::LRR);
    std::vector<int> picks;
    for (int i = 0; i < 8; ++i) {
        const WarpSlot p =
            sched.pick(eligible(sched, all), ascendingAges(4));
        picks.push_back(p.get());
        sched.onIssue(p);
    }
    EXPECT_EQ(picks,
              (std::vector<int>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST(Scheduler, LrrSkipsBlockedWarps)
{
    WarpScheduler sched(0, 1, 4, SchedPolicy::LRR);
    const std::vector<std::uint64_t> only_odd =
        eligible(sched, [](WarpSlot s) { return s.get() % 2 == 1; });
    const std::vector<std::uint64_t> ages = ascendingAges(4);
    EXPECT_EQ(sched.pick(only_odd, ages), WarpSlot{1});
    EXPECT_EQ(sched.pick(only_odd, ages), WarpSlot{3});
    EXPECT_EQ(sched.pick(only_odd, ages), WarpSlot{1});
}

// ---- randomized: bitset pick vs a per-slot predicate oracle ----------

/** The per-slot scan the bitset pick must reproduce decision for
 *  decision: GTO greedy-then-oldest (slot order breaks age ties) and
 *  LRR rotating from one past the last pick. */
struct OracleScheduler
{
    std::vector<WarpSlot> slots;
    SchedPolicy policy;
    WarpSlot greedy = kInvalidWarpSlot;
    std::size_t rr_next = 0;

    WarpSlot
    pick(const std::vector<std::uint64_t> &ages, const SlotPred &can_issue)
    {
        if (policy == SchedPolicy::GTO) {
            if (greedy.valid() && can_issue(greedy))
                return greedy;
            WarpSlot best = kInvalidWarpSlot;
            std::uint64_t best_age = 0;
            for (WarpSlot slot : slots) {
                if (!can_issue(slot))
                    continue;
                if (!best.valid() || ages[slot.idx()] < best_age) {
                    best = slot;
                    best_age = ages[slot.idx()];
                }
            }
            return best;
        }
        const std::size_t n = slots.size();
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t at = (rr_next + i) % n;
            if (can_issue(slots[at])) {
                rr_next = (at + 1) % n;
                return slots[at];
            }
        }
        return kInvalidWarpSlot;
    }
};

/** One random SM-side issue state: per-slot Ready / next-is-mem /
 *  kernel, per-kernel controller admits and LSU room. */
struct IssueState
{
    std::vector<bool> ready, mem;
    std::vector<int> kernel;
    std::array<bool, kMaxKernelsPerSm> admit_any{}, admit_mem{};
    bool lsu_room = false;

    /** The gate the SM applied slot by slot before Ready bitsets. */
    bool
    canIssue(WarpSlot s) const
    {
        const std::size_t i = s.idx();
        const auto k = static_cast<std::size_t>(kernel[i]);
        if (!ready[i] || !admit_any[k])
            return false;
        return !mem[i] || (lsu_room && admit_mem[k]);
    }

    /** The same gate as the SM composes it: per (kernel, next-is-mem)
     *  Ready bitsets, OR'ed under each kernel's admits. */
    std::vector<std::uint64_t>
    eligibleSet(const WarpScheduler &sched) const
    {
        std::vector<std::uint64_t> out(sched.maskWords(), 0);
        for (std::size_t k = 0; k < kMaxKernelsPerSm; ++k) {
            const auto in_set = [&](bool want_mem) {
                return [&, want_mem](WarpSlot s) {
                    return ready[s.idx()] && mem[s.idx()] == want_mem &&
                           kernel[s.idx()] == static_cast<int>(k);
                };
            };
            const std::vector<std::uint64_t> nonmem_set =
                eligible(sched, in_set(false));
            const std::vector<std::uint64_t> mem_set =
                eligible(sched, in_set(true));
            const bool gate_nonmem = admit_any[k];
            const bool gate_mem = admit_any[k] && lsu_room && admit_mem[k];
            for (std::size_t w = 0; w < out.size(); ++w)
                out[w] |= (gate_nonmem ? nonmem_set[w] : 0) |
                          (gate_mem ? mem_set[w] : 0);
        }
        return out;
    }
};

void
pickMatchesOracle(int num_schedulers, int max_warps, SchedPolicy policy,
                  std::uint64_t seed)
{
    Rng rng(seed);
    const auto n = static_cast<std::size_t>(max_warps);
    IssueState st;
    st.ready.assign(n, false);
    st.mem.assign(n, false);
    st.kernel.assign(n, 0);
    std::vector<std::uint64_t> ages(n, 0);

    std::vector<WarpScheduler> scheds;
    std::vector<OracleScheduler> oracles;
    for (int s = 0; s < num_schedulers; ++s) {
        scheds.emplace_back(s, num_schedulers, max_warps, policy);
        oracles.push_back({scheds.back().slots(), policy});
    }

    for (int cycle = 0; cycle < 400; ++cycle) {
        // Density varies so both sparse and crowded sets occur.
        const std::uint64_t ready_pct = 5 + rng.nextBelow(90);
        for (std::size_t i = 0; i < n; ++i) {
            st.ready[i] = rng.nextBelow(100) < ready_pct;
            st.mem[i] = rng.nextBelow(2) == 0;
            st.kernel[i] = static_cast<int>(rng.nextBelow(kMaxKernelsPerSm));
            ages[i] = rng.nextBelow(8); // frequent ties
        }
        for (std::size_t k = 0; k < kMaxKernelsPerSm; ++k) {
            st.admit_any[k] = rng.nextBelow(4) != 0;
            st.admit_mem[k] = rng.nextBelow(2) == 0;
        }
        st.lsu_room = rng.nextBelow(3) != 0;

        for (std::size_t s = 0; s < scheds.size(); ++s) {
            const WarpSlot got =
                scheds[s].pick(st.eligibleSet(scheds[s]), ages);
            const WarpSlot want = oracles[s].pick(
                ages, [&st](WarpSlot w) { return st.canIssue(w); });
            ASSERT_EQ(got, want) << "scheduler " << s << " cycle " << cycle;
            if (got.valid()) {
                scheds[s].onIssue(got);
                oracles[s].greedy = got;
            }
        }
    }
}

TEST(SchedulerOracle, BitsetPickMatchesPredicatePick)
{
    // (schedulers, warps): Table 1, then 65 / 134 / 200 slots per
    // scheduler so the eligible set spans several words, then
    // schedulers with one slot or none.
    const std::pair<int, int> shapes[] = {
        {4, 96}, {4, 16}, {1, 65}, {3, 402}, {1, 200}, {5, 7}, {8, 5}};
    std::uint64_t seed = 0x7363686564ULL; // "sched"
    for (const auto &[nsched, warps] : shapes) {
        for (const SchedPolicy policy : {SchedPolicy::GTO, SchedPolicy::LRR}) {
            SCOPED_TRACE(::testing::Message()
                         << nsched << " schedulers, " << warps << " warps, "
                         << (policy == SchedPolicy::GTO ? "GTO" : "LRR"));
            pickMatchesOracle(nsched, warps, policy, ++seed);
        }
    }
}

} // namespace
} // namespace ckesim

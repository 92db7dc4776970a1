#include "core/ucp.hpp"

#include <algorithm>

#include "sim/check.hpp"
#include "sim/snapshot.hpp"

namespace ckesim {

UmonMonitor::UmonMonitor(int num_sets, int assoc, int sample_shift)
    : num_sets_(num_sets), assoc_(assoc), sample_shift_(sample_shift),
      shadow_tags_(static_cast<std::size_t>(
          std::max(1, num_sets >> sample_shift))),
      way_hits_(static_cast<std::size_t>(assoc), 0)
{
}

void
UmonMonitor::access(LineAddr line_number)
{
    const int set = xorSetIndex(line_number, num_sets_);
    if (set & ((1 << sample_shift_) - 1))
        return; // not a sampled set
    auto &stack =
        shadow_tags_[static_cast<std::size_t>(set >> sample_shift_)];

    for (std::size_t pos = 0; pos < stack.size(); ++pos) {
        if (stack[pos] == line_number) {
            ++way_hits_[pos];
            // Move to MRU.
            stack.erase(stack.begin() +
                        static_cast<std::ptrdiff_t>(pos));
            stack.insert(stack.begin(), line_number);
            return;
        }
    }
    ++misses_;
    stack.insert(stack.begin(), line_number);
    if (static_cast<int>(stack.size()) > assoc_)
        stack.pop_back();
}

std::uint64_t
UmonMonitor::utilityAt(int ways) const
{
    std::uint64_t hits = 0;
    for (int w = 0; w < ways && w < assoc_; ++w)
        hits += way_hits_[static_cast<std::size_t>(w)];
    return hits;
}

void
UmonMonitor::age()
{
    for (std::uint64_t &h : way_hits_)
        h >>= 1;
    misses_ >>= 1;
}

template <class Ar, ObjectOf<UmonMonitor> Self>
void
UmonMonitor::state(Ar &ar, Self &self)
{
    ar.section("umon");
    ar.fixedLength(self.shadow_tags_);
    for (auto &stack : self.shadow_tags_) {
        ar.length(stack, static_cast<std::size_t>(self.assoc_));
        for (auto &line : stack)
            ar.unit(line);
    }
    // The field-table encoding of a vector: its count, then each
    // counter through the table.
    ar.fixedLength(self.way_hits_);
    for (auto &hits : self.way_hits_)
        ar.fields(hits);
    ar.u64(self.misses_);
}

template void UmonMonitor::state(SnapshotWriter &, const UmonMonitor &);
template void UmonMonitor::state(SnapshotReader &, UmonMonitor &);

std::vector<int>
ucpLookaheadPartition(const std::vector<const UmonMonitor *> &monitors,
                      int assoc)
{
    const std::size_t n = monitors.size();
    SimCtx ctx;
    ctx.module = "ucp";
    SIM_CHECK(n >= 1, ctx, "UCP partition over zero kernels");
    std::vector<int> alloc(n, 1); // every kernel keeps one way
    int remaining = assoc - static_cast<int>(n);
    SIM_CHECK(remaining >= 0, ctx,
              "associativity " << assoc << " cannot give each of " << n
                               << " kernels a way");

    while (remaining > 0) {
        // Greedy: give the next way to the kernel with the highest
        // marginal utility.
        std::size_t best = 0;
        std::uint64_t best_gain = 0;
        bool found = false;
        for (std::size_t i = 0; i < n; ++i) {
            if (alloc[i] >= assoc)
                continue;
            const std::uint64_t gain =
                monitors[i]->utilityAt(alloc[i] + 1) -
                monitors[i]->utilityAt(alloc[i]);
            if (!found || gain > best_gain) {
                best = i;
                best_gain = gain;
                found = true;
            }
        }
        if (!found)
            break;
        ++alloc[best];
        --remaining;
    }
    // Hand out any leftovers (all kernels saturated) to kernel 0.
    if (remaining > 0)
        alloc[0] += remaining;
    return alloc;
}

} // namespace ckesim

#include "sm/scheduler.hpp"

#include <bit>

namespace ckesim {

namespace {
constexpr std::size_t kNoBit = ~std::size_t{0};

/** Lowest set bit of @p bits at index >= @p from, or kNoBit. */
std::size_t
nextSetBit(std::span<const std::uint64_t> bits, std::size_t from)
{
    for (std::size_t w = from / 64; w < bits.size(); ++w) {
        std::uint64_t word = bits[w];
        if (w == from / 64)
            word &= ~std::uint64_t{0} << (from % 64);
        if (word != 0)
            return w * 64 + static_cast<std::size_t>(std::countr_zero(word));
    }
    return kNoBit;
}
} // namespace

WarpScheduler::WarpScheduler(int id, int num_schedulers, int max_warps,
                             SchedPolicy policy)
    : id_(id), stride_(num_schedulers), policy_(policy)
{
    for (int slot = id; slot < max_warps; slot += num_schedulers)
        slots_.push_back(WarpSlot{slot});
}

WarpSlot
WarpScheduler::pick(std::span<const std::uint64_t> eligible,
                    std::span<const std::uint64_t> ages)
{
    if (policy_ == SchedPolicy::GTO) {
        // Greedy: stick to the last-issued warp while it can go.
        if (greedy_.valid()) {
            const std::size_t j = bitOf(greedy_);
            if ((eligible[j / 64] >> (j % 64)) & 1u)
                return greedy_;
        }
        // Then oldest (smallest TB age; slot order breaks ties).
        WarpSlot best = kInvalidWarpSlot;
        std::uint64_t best_age = 0;
        for (std::size_t w = 0; w < eligible.size(); ++w) {
            for (std::uint64_t bits = eligible[w]; bits != 0;
                 bits &= bits - 1) {
                const WarpSlot slot =
                    slots_[w * 64 +
                           static_cast<std::size_t>(std::countr_zero(bits))];
                const std::uint64_t age = ages[slot.idx()];
                if (!best.valid() || age < best_age) {
                    best = slot;
                    best_age = age;
                }
            }
        }
        return best;
    }
    // LRR: the first eligible slot from one past the last pick,
    // wrapping around.
    std::size_t at = nextSetBit(eligible, rr_next_);
    if (at == kNoBit)
        at = nextSetBit(eligible, 0);
    if (at == kNoBit)
        return kInvalidWarpSlot;
    rr_next_ = (at + 1) % slots_.size();
    return slots_[at];
}

} // namespace ckesim

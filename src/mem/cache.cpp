#include "mem/cache.hpp"

#include "sim/check.hpp"
#include "sim/snapshot.hpp"

namespace ckesim {

namespace {
SimCtx
cacheCtx(KernelId kernel = kInvalidKernel)
{
    SimCtx ctx;
    ctx.kernel = kernel;
    ctx.module = "cache";
    return ctx;
}
} // namespace

CacheArray::CacheArray(int num_sets, int assoc)
    : num_sets_(num_sets), assoc_(assoc),
      tags_(static_cast<std::size_t>(num_sets) *
            static_cast<std::size_t>(assoc)),
      lru_(tags_.size()), state_(tags_.size()),
      owners_(tags_.size(), kInvalidKernel)
{
    SIM_CHECK(num_sets > 0 && (num_sets & (num_sets - 1)) == 0,
              cacheCtx(),
              "num_sets " << num_sets << " is not a power of two");
    SIM_CHECK(assoc > 0, cacheCtx(),
              "non-positive associativity " << assoc);
}

CacheLine
CacheArray::line(int set, int way) const
{
    const std::size_t i = idx(set, way);
    CacheLine l;
    l.line_addr = tags_[i];
    l.valid = (state_[i] & kValid) != 0;
    l.reserved = (state_[i] & kReserved) != 0;
    l.dirty = (state_[i] & kDirty) != 0;
    l.owner = owners_[i];
    l.lru = lru_[i];
    return l;
}

int
CacheArray::probe(LineAddr la) const
{
    const std::size_t base = idx(setIndex(la), 0);
    const LineAddr *tags = &tags_[base];
    for (int w = 0; w < assoc_; ++w) {
        // A free way keeps its last tag, so a match must also be live.
        if (tags[w] == la &&
            (state_[base + static_cast<std::size_t>(w)] &
             (kValid | kReserved)) != 0)
            return w;
    }
    return -1;
}

void
CacheArray::touch(int set, int way)
{
    lru_[idx(set, way)] = ++tick_;
}

std::pair<int, int>
CacheArray::allowedWays(KernelId kernel) const
{
    if (!kernel.valid() || kernel.idx() >= restrictions_.size())
        return {0, assoc_};
    const WayRange &r = restrictions_[kernel.idx()];
    if (r.count == 0)
        return {0, assoc_};
    return {r.first, r.first + r.count};
}

VictimResult
CacheArray::chooseVictim(LineAddr la, KernelId kernel) const
{
    const std::size_t base = idx(setIndex(la), 0);
    const std::uint8_t *state = &state_[base];
    const auto [first, last] = allowedWays(kernel);
    VictimResult res;

    // Prefer a free way.
    for (int w = first; w < last; ++w) {
        if ((state[w] & (kValid | kReserved)) == 0) {
            res.ok = true;
            res.way = w;
            return res;
        }
    }

    // Otherwise the LRU non-reserved way (all of them valid here).
    const std::uint64_t *lru = &lru_[base];
    int best = -1;
    std::uint64_t best_lru = 0;
    for (int w = first; w < last; ++w) {
        if ((state[w] & kReserved) != 0)
            continue;
        if (best < 0 || lru[w] < best_lru) {
            best = w;
            best_lru = lru[w];
        }
    }
    if (best < 0)
        return res; // every candidate is reserved: reservation failure

    res.ok = true;
    res.way = best;
    if ((state[best] & (kValid | kDirty)) == (kValid | kDirty)) {
        res.evicted_dirty = true;
        res.evicted_line = tags_[base + static_cast<std::size_t>(best)];
    }
    return res;
}

void
CacheArray::reserve(int set, int way, LineAddr la, KernelId kernel)
{
    const std::size_t i = idx(set, way);
    tags_[i] = la;
    state_[i] = kReserved;
    owners_[i] = kernel;
    lru_[i] = ++tick_;
}

void
CacheArray::fill(int set, int way, bool dirty)
{
    const std::size_t i = idx(set, way);
    SIM_INVARIANT((state_[i] & kReserved) != 0, cacheCtx(owners_[i]),
                  "fill on a non-reserved line (set " << set << " way "
                                                      << way << ")");
    state_[i] = dirty ? kValid | kDirty : kValid;
    lru_[i] = ++tick_;
}

void
CacheArray::install(int set, int way, LineAddr la, KernelId kernel,
                    bool dirty)
{
    const std::size_t i = idx(set, way);
    tags_[i] = la;
    state_[i] = dirty ? kValid | kDirty : kValid;
    owners_[i] = kernel;
    lru_[i] = ++tick_;
}

void
CacheArray::invalidate(int set, int way)
{
    state_[idx(set, way)] = 0;
}

void
CacheArray::restrictToWays(KernelId kernel, int first, int count)
{
    SIM_CHECK(kernel.valid(), cacheCtx(kernel),
              "way restriction for invalid kernel");
    SIM_CHECK(first >= 0 && count >= 0 && first + count <= assoc_,
              cacheCtx(kernel),
              "way range [" << first << ", " << first + count
                            << ") exceeds associativity " << assoc_);
    if (kernel.idx() >= restrictions_.size())
        restrictions_.resize(kernel.idx() + 1);
    if (count >= assoc_) {
        restrictions_[kernel.idx()] = WayRange{};
    } else {
        restrictions_[kernel.idx()] = WayRange{first, count};
    }
}

void
CacheArray::clearWayRestrictions()
{
    restrictions_.clear();
}

int
CacheArray::occupancyOf(KernelId kernel) const
{
    int n = 0;
    for (std::size_t i = 0; i < state_.size(); ++i)
        if ((state_[i] & kValid) != 0 && owners_[i] == kernel)
            ++n;
    return n;
}

template <class Ar, ObjectOf<CacheArray> Self>
void
CacheArray::state(Ar &ar, Self &self)
{
    ar.section("cache_array");
    // Line by line, each line's fields in CacheLine order.
    ar.fixedLength(self.tags_);
    for (std::size_t i = 0; i < self.tags_.size(); ++i) {
        ar.unit(self.tags_[i]);
        bool valid = (self.state_[i] & kValid) != 0;
        bool reserved = (self.state_[i] & kReserved) != 0;
        bool dirty = (self.state_[i] & kDirty) != 0;
        ar.boolean(valid);
        ar.boolean(reserved);
        ar.boolean(dirty);
        ar.id(self.owners_[i]);
        ar.u64(self.lru_[i]);
        if constexpr (Ar::kLoading)
            self.state_[i] = static_cast<std::uint8_t>(
                (valid ? kValid : 0) | (reserved ? kReserved : 0) |
                (dirty ? kDirty : 0));
    }
    ar.u64(self.tick_);
    ar.length(self.restrictions_);
    for (auto &range : self.restrictions_) {
        ar.i64(range.first);
        ar.i64(range.count);
    }
}

template void CacheArray::state(SnapshotWriter &, const CacheArray &);
template void CacheArray::state(SnapshotReader &, CacheArray &);

} // namespace ckesim

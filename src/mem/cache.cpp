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
      sets_(static_cast<std::size_t>(num_sets) *
            static_cast<std::size_t>(assoc))
{
    SIM_CHECK(num_sets > 0 && (num_sets & (num_sets - 1)) == 0,
              cacheCtx(),
              "num_sets " << num_sets << " is not a power of two");
    SIM_CHECK(assoc > 0, cacheCtx(),
              "non-positive associativity " << assoc);
}

int
CacheArray::probe(LineAddr la) const
{
    const int set = setIndex(la);
    for (int w = 0; w < assoc_; ++w) {
        const CacheLine &l = line(set, w);
        if ((l.valid || l.reserved) && l.line_addr == la)
            return w;
    }
    return -1;
}

void
CacheArray::touch(int set, int way)
{
    line(set, way).lru = ++tick_;
}

bool
CacheArray::wayAllowed(KernelId kernel, int way) const
{
    if (!kernel.valid() || kernel.idx() >= restrictions_.size())
        return true;
    const WayRange &r = restrictions_[kernel.idx()];
    if (r.count == 0)
        return true;
    return way >= r.first && way < r.first + r.count;
}

VictimResult
CacheArray::chooseVictim(LineAddr la, KernelId kernel) const
{
    const int set = setIndex(la);
    VictimResult res;

    // Prefer an invalid (and allowed) way.
    for (int w = 0; w < assoc_; ++w) {
        const CacheLine &l = line(set, w);
        if (!l.valid && !l.reserved && wayAllowed(kernel, w)) {
            res.ok = true;
            res.way = w;
            return res;
        }
    }

    // Otherwise the LRU valid, non-reserved, allowed way.
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
        return res; // every candidate is reserved: reservation failure

    const CacheLine &victim = line(set, best);
    res.ok = true;
    res.way = best;
    if (victim.valid && victim.dirty) {
        res.evicted_dirty = true;
        res.evicted_line = victim.line_addr;
    }
    return res;
}

void
CacheArray::reserve(int set, int way, LineAddr la, KernelId kernel)
{
    CacheLine &l = line(set, way);
    l.line_addr = la;
    l.valid = false;
    l.reserved = true;
    l.dirty = false;
    l.owner = kernel;
    l.lru = ++tick_;
}

void
CacheArray::fill(int set, int way, bool dirty)
{
    CacheLine &l = line(set, way);
    SIM_INVARIANT(l.reserved, cacheCtx(l.owner),
                  "fill on a non-reserved line (set " << set << " way "
                                                      << way << ")");
    l.reserved = false;
    l.valid = true;
    l.dirty = dirty;
    l.lru = ++tick_;
}

void
CacheArray::install(int set, int way, LineAddr la, KernelId kernel,
                    bool dirty)
{
    CacheLine &l = line(set, way);
    l.line_addr = la;
    l.valid = true;
    l.reserved = false;
    l.dirty = dirty;
    l.owner = kernel;
    l.lru = ++tick_;
}

void
CacheArray::invalidate(int set, int way)
{
    CacheLine &l = line(set, way);
    l.valid = false;
    l.reserved = false;
    l.dirty = false;
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
    for (const CacheLine &l : sets_)
        if (l.valid && l.owner == kernel)
            ++n;
    return n;
}

template <class Ar, ObjectOf<CacheArray> Self>
void
CacheArray::state(Ar &ar, Self &self)
{
    ar.section("cache_array");
    ar.fixedLength(self.sets_);
    for (auto &l : self.sets_) {
        ar.unit(l.line_addr);
        ar.boolean(l.valid);
        ar.boolean(l.reserved);
        ar.boolean(l.dirty);
        ar.id(l.owner);
        ar.u64(l.lru);
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

// simcheck golden fixture: clean control, source half.
// run_fixture_tests.py analyses this file as src/sm/fixture_clean.cpp,
// next to fixture_clean.hpp, so the path-scoped rules apply too. It
// exercises the constructs the rules look at, written the way the
// contracts demand; each waiver below suppresses a real hit, so a
// full-rule run must report zero findings, unused-waiver included.
#include <cstdio>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

using Cycle = unsigned long long;

class SnapshotWriter
{
  public:
    void u64(unsigned long long v);
};

class SnapshotReader
{
  public:
    unsigned long long u64();
};

/* Never seed with rand() or read std::chrono::steady_clock here, and
   never keep a std::map on this path. */
class Pipeline
{
  public:
    void tick(Cycle now);

    void debugDump() const
    {
        std::printf("head=%llu\n", head_); // SIMCHECK-ALLOW(stdio): debugger-only dump, never called by the run loop
    }

    void snapshot(SnapshotWriter &w) const;
    void restore(SnapshotReader &r);

    unsigned long long population() const
    {
        unsigned long long n = 0;
        // Pure commutative reduction over an unordered container —
        // order-independent by construction.
        // SIMCHECK-ALLOW(determinism-hazard): counting members is commutative; no ordered effect escapes the loop
        for (const int id : members_)
            n += static_cast<unsigned long long>(id) * 0 + 1;
        return n;
    }

  private:
    void snapshotLanes(SnapshotWriter &w) const;
    void restoreLanes(SnapshotReader &r);

    unsigned long long head_ = 0;
    unsigned long long lanes_ = 0;
    int capacity_ = 0; // SIMCHECK-ALLOW(snapshot-coverage): fixed at construction
    std::unordered_set<int> members_; // SIMCHECK-ALLOW(snapshot-coverage): membership cache, rebuilt on restore
    // SIMCHECK-ALLOW(hotpath): read only by snapshot/restore, never per cycle
    std::map<int, unsigned long long> by_id_;
};

void
Pipeline::snapshot(SnapshotWriter &w) const
{
    w.u64(head_);
    snapshotLanes(w);
    w.u64(by_id_.size());
    for (const auto &kv : by_id_)
        w.u64(kv.second);
}

void
Pipeline::restore(SnapshotReader &r)
{
    head_ = r.u64();
    restoreLanes(r);
    const unsigned long long n = r.u64();
    for (unsigned long long i = 0; i < n; ++i)
        by_id_[static_cast<int>(i)] = r.u64();
}

// Helper indirection: lanes_ is serialized here, two calls deep from
// the snapshot entry points — coverage must see through it.
void
Pipeline::snapshotLanes(SnapshotWriter &w) const
{
    w.u64(lanes_);
}

void
Pipeline::restoreLanes(SnapshotReader &r)
{
    lanes_ = r.u64();
}

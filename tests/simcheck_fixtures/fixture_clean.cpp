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

    template <class Ar, class Self>
    static void state(Ar &ar, Self &self);

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
    template <class Ar, class Self>
    static void walkLanes(Ar &ar, Self &self);

    unsigned long long head_ = 0;
    unsigned long long lanes_ = 0;
    int capacity_ = 0; // SIMCHECK-ALLOW(snapshot-coverage): fixed at construction
    std::unordered_set<int> members_; // SIMCHECK-ALLOW(snapshot-coverage): membership cache, rebuilt on restore
    // SIMCHECK-ALLOW(hotpath): read only by the state walk, never per cycle
    std::map<int, unsigned long long> by_id_;
};

template <class Ar, class Self>
void
Pipeline::state(Ar &ar, Self &self)
{
    ar.u64(self.head_);
    walkLanes(ar, self);
    ar.fixedLength(self.by_id_);
    for (auto &kv : self.by_id_)
        ar.u64(kv.second);
}

// Helper indirection: lanes_ is visited here, one call deep from the
// walk — coverage must see through it.
template <class Ar, class Self>
void
Pipeline::walkLanes(Ar &ar, Self &self)
{
    ar.u64(self.lanes_);
}

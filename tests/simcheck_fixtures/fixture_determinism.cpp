// simcheck golden fixture: determinism-hazard.
// Never compiled — parsed by tools/simcheck only. Each EXPECT[...]
// comment marks a line where exactly one finding must anchor; the
// runner (run_fixture_tests.py) fails on any extra or missing
// finding.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <map>
#include <random>
#include <unordered_map>
#include <vector>

class Journal
{
  public:
    void u64(unsigned long long v);
};

struct Widget
{
    int id = 0;
};

class Tracker
{
  public:
    void dump(Journal &j) const
    {
        for (const auto &kv : stats_) // EXPECT[determinism-hazard]
            j.u64(kv.second);
    }

    // Key-sorted walk of an ordered, value-keyed container: fine.
    void dumpSorted(Journal &j) const
    {
        for (const auto &kv : sorted_)
            j.u64(kv.second);
    }

  private:
    std::unordered_map<int, unsigned long long> stats_;
    std::map<int, unsigned long long> sorted_;
    std::map<Widget *, int> owners_; // EXPECT[determinism-hazard]
};

inline unsigned long long hashWidget(Widget *p)
{
    return std::hash<Widget *>{}(p); // EXPECT[determinism-hazard]
}

inline bool older(Widget *a, Widget *b)
{
    return a < b; // EXPECT[determinism-hazard]
}

// A waiver trailing a statement that starts with `*` belongs to that
// line alone: it must not leak onto the loop below it.
class Tally
{
  public:
    void bump()
    {
        *out_ = 1; // SIMCHECK-ALLOW(determinism-hazard): a plain store, nothing to waive
        for (auto &kv : by_key_) total_ += kv.second; // EXPECT[determinism-hazard]
    }

  private:
    unsigned long long *out_ = nullptr;
    unsigned long long total_ = 0;
    std::unordered_map<int, unsigned long long> by_key_;
};

// Ad-hoc entropy and wall-clock reads: each makes a run depend on
// something other than (config, workload, seed). Only the seeded
// counter RNG in src/sim/rng.hpp may name a <random> engine.
inline unsigned long long
ambient(struct timeval *tv, struct timespec *ts, timer_t *timer,
        long stamp)
{
    std::srand(7); // EXPECT[determinism-hazard]
    unsigned long long v = std::rand(); // EXPECT[determinism-hazard]
    std::random_device dev; // EXPECT[determinism-hazard]
    std::mt19937_64 gen(dev()); // EXPECT[determinism-hazard]
    std::default_random_engine eng; // EXPECT[determinism-hazard]
    std::uniform_int_distribution<int> pick(0, 3); // EXPECT[determinism-hazard]
    v += std::chrono::steady_clock::now().time_since_epoch().count(); // EXPECT[determinism-hazard]
    gettimeofday(tv, nullptr); // EXPECT[determinism-hazard]
    clock_gettime(CLOCK_MONOTONIC, ts); // EXPECT[determinism-hazard]
    timer_create(CLOCK_MONOTONIC, nullptr, timer); // EXPECT[determinism-hazard]
    setitimer(ITIMER_PROF, nullptr, nullptr); // EXPECT[determinism-hazard]
    v += __builtin_ia32_rdtsc(); // EXPECT[determinism-hazard]
    v += time(nullptr); // EXPECT[determinism-hazard]
    v += clock(); // EXPECT[determinism-hazard]
    // Not reads of ambient state: a time() of a caller's value, and
    // names in comments or strings (rand(), steady_clock).
    v += time(&stamp);
    const char *doc = "never call rand() or read steady_clock";
    return v + (doc != nullptr);
}

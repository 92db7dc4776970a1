// simcheck golden fixture: determinism-hazard's RNG exemption.
// run_fixture_tests.py analyses this file as src/sim/rng.hpp, the one
// file that may name a <random> engine. The exemption covers entropy
// sources only: an unordered walk is still a hazard here.
#include <random>
#include <unordered_map>

class Journal
{
  public:
    void u64(unsigned long long v);
};

class SeedTable
{
  public:
    unsigned long long draw() { return gen_(); }

    void dump(Journal &j) const
    {
        for (const auto &kv : seeds_) // EXPECT[determinism-hazard]
            j.u64(kv.second);
    }

  private:
    std::mt19937_64 gen_{42};
    std::unordered_map<int, unsigned long long> seeds_;
};

// simcheck golden fixture: waiver-syntax and unused-waiver.
// Run with every rule enabled. A waiver names its rule and gives a
// reason, so does a clang-tidy suppression (`NOLINT(check): reason`),
// and a waiver that suppresses nothing is itself a finding.
#include <cstdlib>
#include <map>

int
roll()
{
    return std::rand(); // SIMCHECK-ALLOW(determinism-hazard) EXPECT[waiver-syntax] EXPECT[determinism-hazard]
}

int
rollWaived()
{
    // SIMCHECK-ALLOW(determinism-hazard): host-side jitter, never simulated state
    return std::rand();
}

int legacy = 0; // NOLINT EXPECT[waiver-syntax]
int checked = 0; // NOLINT(bugprone-narrowing-conversions): the value fits
// NOLINTNEXTLINE(readability-magic-numbers) EXPECT[waiver-syntax]
int answer = 42;

int quiet = 0; // SIMCHECK-ALLOW(stdio): nothing here writes to stdout EXPECT[unused-waiver]
// SIMCHECK-ALLOW(snapshot-coverage-v2): the rule's old name matches nothing EXPECT[unused-waiver]
int stale = 0;

// hotpath judges only src/mem/, src/sm/ and src/gpu.*: elsewhere a
// std::map is no finding, so a waiver for one is stale.
std::map<int, int> cold_index; // SIMCHECK-ALLOW(hotpath): not a per-cycle path EXPECT[unused-waiver]

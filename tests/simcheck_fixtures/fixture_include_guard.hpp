// simcheck golden fixture: include-guard.
// run_fixture_tests.py analyses this file as src/sm/probe.hpp. The
// #ifndef names the right guard, but the #define misspells it, so
// the guard never guards: a second inclusion redefines everything.
#ifndef CKESIM_SM_PROBE_HPP
#define CKESIM_SM_PROBE_TYPO_HPP // EXPECT[include-guard]

struct Probe
{
    int hits = 0;
};

#endif

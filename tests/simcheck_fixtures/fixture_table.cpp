// simcheck golden fixture: the stdio rule's reporting-layer exemption.
// run_fixture_tests.py analyses this file as src/metrics/table.cpp:
// the paper tables may go to stdout there, but the standard streams
// stay banned.
#include <cstdio>
#include <iostream>

void
printRow(const char *name, double v)
{
    std::printf("%-12s %8.3f\n", name, v);
    std::puts("");
    std::cout << name << '\n'; // EXPECT[stdio]
}

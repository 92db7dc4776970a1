// simcheck golden fixture: stdio.
// Simulator code reports through the metrics layer: std::cout and
// std::cerr are banned everywhere, and stdout writes are reserved for
// the terminal reporting layer (src/metrics/table.cpp). Writes to
// stderr or to an explicit FILE* are fine.
#include <cstdio>
#include <iostream>

void
report(int v, std::FILE *log)
{
    std::cout << v << '\n'; // EXPECT[stdio]
    std::cerr << v << '\n'; // EXPECT[stdio]
    printf("%d\n", v); // EXPECT[stdio]
    std::puts("done"); // EXPECT[stdio]
    putchar('\n'); // EXPECT[stdio]
    std::fprintf(stdout, "%d\n", v); // EXPECT[stdio]
    std::fprintf(stderr, "%d\n", v);
    std::fprintf(log, "%d\n", v);
    char buf[32];
    std::snprintf(buf, sizeof buf, "printf(%d)", v);
    fmt::printf("%d", v); // another library's printf
}

// simcheck golden fixture: simerror-discipline.
// A raw throw bypasses the SimError context plumbing (cycle, SM,
// module) that makes simulator failures diagnosable; a bare rethrow
// inside a catch block is the one allowed form. A bare assert()
// vanishes under NDEBUG, so Release runs would check nothing.
#include <cassert> // EXPECT[simerror-discipline]
#include <stdexcept>

void
explode(int x)
{
    if (x < 0)
        throw std::runtime_error("negative"); // EXPECT[simerror-discipline]
}

void
forward(int x)
{
    try {
        explode(x);
    } catch (...) {
        throw; // bare rethrow: allowed
    }
}

int
halve(int x)
{
    assert(x % 2 == 0); // EXPECT[simerror-discipline]
    static_assert(sizeof(int) >= 4, "assert(x) in a string is prose");
    return x / 2;
}

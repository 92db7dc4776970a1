// simcheck golden fixture: hotpath.
// run_fixture_tests.py analyses this file as src/mem/staging.hpp,
// where the run loop walks every structure each cycle: node-based
// containers are findings there, flat ones are not.
#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

class Staging
{
    std::deque<int> pending_; // EXPECT[hotpath]
    std::map<int, int> by_line_; // EXPECT[hotpath]
    std::unordered_map<int, int> owners_; // EXPECT[hotpath]
    std::vector<int> ring_;
};

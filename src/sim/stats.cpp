#include "sim/stats.hpp"

#include <cmath>

namespace ckesim {

namespace {
/** Two-object table walk: a += b for every counter. */
struct AddCounters
{
    constexpr void
    operator()(const Field &, std::uint64_t &a, const std::uint64_t &b)
    {
        a += b;
    }
};
} // namespace

KernelStats &
KernelStats::operator+=(const KernelStats &o)
{
    AddCounters add;
    fields(add, *this, o);
    return *this;
}

SmStats &
SmStats::operator+=(const SmStats &o)
{
    AddCounters add;
    fields(add, *this, o);
    return *this;
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(xs.size()));
}

} // namespace ckesim

#include "core/qbmi.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "sim/check.hpp"

namespace ckesim {

std::uint64_t
lcm64(std::uint64_t a, std::uint64_t b)
{
    if (a == 0 || b == 0)
        return 0;
    return a / std::gcd(a, b) * b;
}

std::array<int, kMaxKernelsPerSm>
qbmiQuotas(std::span<const double> req_per_minst)
{
    SimCtx ctx;
    ctx.module = "qbmi";
    SIM_CHECK(req_per_minst.size() <= kMaxKernelsPerSm, ctx,
              "QBMI quotas for " << req_per_minst.size()
                                 << " kernels (max " << kMaxKernelsPerSm
                                 << ")");
    std::array<std::uint64_t, kMaxKernelsPerSm> r{};
    std::uint64_t l = 1;
    for (std::size_t i = 0; i < req_per_minst.size(); ++i) {
        const auto rounded = static_cast<std::uint64_t>(
            std::llround(std::max(req_per_minst[i], 1.0)));
        r[i] = std::max<std::uint64_t>(rounded, 1);
        l = lcm64(l, r[i]);
    }
    std::array<int, kMaxKernelsPerSm> quotas{};
    for (std::size_t i = 0; i < req_per_minst.size(); ++i)
        quotas[i] = static_cast<int>(l / r[i]);
    return quotas;
}

} // namespace ckesim

/**
 * @file
 * Unit tests for QBMI quota computation (Section 3.2):
 * quota_i = LCM(r_0..r_{n-1}) / r_i.
 */

#include <gtest/gtest.h>

#include "core/qbmi.hpp"

namespace ckesim {
namespace {

TEST(Lcm, Basics)
{
    EXPECT_EQ(lcm64(2, 3), 6u);
    EXPECT_EQ(lcm64(4, 6), 12u);
    EXPECT_EQ(lcm64(7, 7), 7u);
    EXPECT_EQ(lcm64(1, 9), 9u);
    EXPECT_EQ(lcm64(0, 5), 0u);
}

/** qbmiQuotas for @p rates.size() kernels, as a list of that length. */
std::vector<int>
quotas(const std::vector<double> &rates)
{
    const std::array<int, kMaxKernelsPerSm> q = qbmiQuotas(rates);
    for (std::size_t i = rates.size(); i < q.size(); ++i)
        EXPECT_EQ(q[i], 0) << "quota past the last kernel";
    return {q.begin(), q.begin() + static_cast<std::ptrdiff_t>(rates.size())};
}

TEST(QbmiQuotas, PaperFormula)
{
    // bp (Req/Minst 2) with sv (Req/Minst 3): LCM 6 -> quotas (3, 2)
    // so both kernels issue the same request volume per round.
    EXPECT_EQ(quotas({2.0, 3.0}), (std::vector<int>{3, 2}));
    // bp with ks (17): LCM 34 -> (17, 2).
    EXPECT_EQ(quotas({2.0, 17.0}), (std::vector<int>{17, 2}));
}

TEST(QbmiQuotas, EqualRatesGetEqualQuotas)
{
    EXPECT_EQ(quotas({4.0, 4.0}), (std::vector<int>{1, 1}));
}

TEST(QbmiQuotas, RoundsAndClampsRates)
{
    // 0.4 clamps to 1; 2.6 rounds to 3.
    EXPECT_EQ(quotas({0.4, 2.6}), (std::vector<int>{3, 1}));
}

TEST(QbmiQuotas, BalancesRequestVolume)
{
    // quota_i * r_i must be equal across kernels (the LCM).
    const std::vector<double> rates = {2.0, 3.0, 17.0};
    const std::vector<int> q = quotas(rates);
    ASSERT_EQ(q.size(), 3u);
    const double v0 = q[0] * rates[0];
    EXPECT_DOUBLE_EQ(q[1] * rates[1], v0);
    EXPECT_DOUBLE_EQ(q[2] * rates[2], v0);
}

TEST(QbmiQuotas, ThreeKernels)
{
    // LCM(1,2,3) = 6 -> (6,3,2).
    EXPECT_EQ(quotas({1.0, 2.0, 3.0}),
              (std::vector<int>{6, 3, 2}));
}

TEST(ReqPerMinstEstimator, DefaultsToOne)
{
    ReqPerMinstEstimator e;
    EXPECT_DOUBLE_EQ(e.value(), 1.0);
}

TEST(ReqPerMinstEstimator, SamplesEvery1024Requests)
{
    ReqPerMinstEstimator e;
    // 512 instructions x 2 requests each = 1024 requests.
    for (int i = 0; i < 512; ++i) {
        e.onMemInstr();
        e.onRequest();
        e.onRequest();
    }
    EXPECT_DOUBLE_EQ(e.value(), 2.0);
}

TEST(ReqPerMinstEstimator, NoUpdateMidWindow)
{
    ReqPerMinstEstimator e;
    for (int i = 0; i < 100; ++i) {
        e.onMemInstr();
        e.onRequest();
    }
    EXPECT_DOUBLE_EQ(e.value(), 1.0); // window incomplete
}

TEST(ReqPerMinstEstimator, TracksPhaseChanges)
{
    ReqPerMinstEstimator e;
    for (int i = 0; i < 1024; ++i) {
        e.onMemInstr();
        e.onRequest();
    }
    EXPECT_DOUBLE_EQ(e.value(), 1.0);
    // Second phase: 4 requests per instruction.
    for (int i = 0; i < 256; ++i) {
        e.onMemInstr();
        for (int r = 0; r < 4; ++r)
            e.onRequest();
    }
    EXPECT_DOUBLE_EQ(e.value(), 4.0);
}

TEST(ReqPerMinstEstimator, Reset)
{
    ReqPerMinstEstimator e;
    for (int i = 0; i < 1024; ++i) {
        e.onMemInstr();
        e.onRequest();
        e.onRequest();
    }
    e.reset();
    EXPECT_DOUBLE_EQ(e.value(), 1.0);
}

} // namespace
} // namespace ckesim

/**
 * @file
 * The synthetic kernel suite must land exactly on Table 2's static
 * occupancies and keep its C/M composition.
 */

#include <gtest/gtest.h>

#include <string>

#include "kernels/profile.hpp"
#include "kernels/workload.hpp"
#include "sim/check.hpp"

namespace ckesim {
namespace {

struct OccRow
{
    const char *name;
    double rf, smem, thread, tb;
    KernelClass cls;
};

// Table 2 of the paper.
const OccRow kTable2[] = {
    {"cp", 0.875, 0.667, 0.667, 1.000, KernelClass::Compute},
    {"hs", 0.984, 0.219, 0.583, 0.438, KernelClass::Compute},
    {"dc", 0.562, 0.333, 0.333, 1.000, KernelClass::Compute},
    {"pf", 0.750, 0.250, 1.000, 0.750, KernelClass::Compute},
    {"bp", 0.562, 0.133, 1.000, 0.750, KernelClass::Compute},
    {"bs", 0.750, 0.000, 1.000, 0.375, KernelClass::Compute},
    {"st", 0.750, 0.000, 1.000, 0.375, KernelClass::Compute},
    {"3m", 0.562, 0.000, 1.000, 0.750, KernelClass::Memory},
    {"sv", 0.750, 0.000, 1.000, 1.000, KernelClass::Memory},
    {"cd", 1.000, 0.000, 0.333, 1.000, KernelClass::Memory},
    {"s2", 0.500, 0.000, 0.667, 1.000, KernelClass::Memory},
    {"ks", 0.562, 0.000, 1.000, 0.750, KernelClass::Memory},
    {"ax", 0.562, 0.000, 1.000, 0.750, KernelClass::Memory},
};

class ProfileOccupancy : public ::testing::TestWithParam<OccRow>
{
};

TEST_P(ProfileOccupancy, MatchesTable2)
{
    const OccRow row = GetParam();
    const SmConfig sm;
    const KernelProfile &p = findProfile(row.name);
    EXPECT_NEAR(p.rfOccupancy(sm), row.rf, 0.01) << row.name;
    EXPECT_NEAR(p.smemOccupancy(sm), row.smem, 0.01) << row.name;
    EXPECT_NEAR(p.threadOccupancy(sm), row.thread, 0.01) << row.name;
    EXPECT_NEAR(p.tbOccupancy(sm), row.tb, 0.01) << row.name;
    EXPECT_EQ(p.expected_class, row.cls) << row.name;
}

INSTANTIATE_TEST_SUITE_P(
    Table2, ProfileOccupancy, ::testing::ValuesIn(kTable2),
    [](const ::testing::TestParamInfo<OccRow> &info) {
        std::string n = info.param.name;
        if (n == "3m")
            n = "mm3"; // identifiers cannot start with a digit
        return n;
    });

TEST(Profile, SuiteHasSevenComputeSixMemory)
{
    EXPECT_EQ(benchmarkSuite().size(), 13u);
    EXPECT_EQ(kernelsOfClass(KernelClass::Compute).size(), 7u);
    EXPECT_EQ(kernelsOfClass(KernelClass::Memory).size(), 6u);
}

TEST(Profile, MaxTbsNeverExceedsAnyResource)
{
    const SmConfig sm;
    for (const KernelProfile &p : benchmarkSuite()) {
        const int n = p.maxTbsPerSm(sm);
        EXPECT_GE(n, 1);
        EXPECT_LE(n * p.threads_per_tb, sm.max_threads) << p.name;
        EXPECT_LE(n * p.regsPerTb(), sm.register_file) << p.name;
        EXPECT_LE(n * p.smem_per_tb, sm.smem_bytes) << p.name;
        EXPECT_LE(n, sm.max_tbs) << p.name;
        EXPECT_LE(n * p.warpsPerTb(sm.simd_width), sm.max_warps)
            << p.name;
        // Maximality: one more TB must not fit.
        const bool one_more_fits =
            (n + 1) * p.threads_per_tb <= sm.max_threads &&
            (n + 1) * p.regsPerTb() <= sm.register_file &&
            (n + 1) * p.smem_per_tb <= sm.smem_bytes &&
            (n + 1) <= sm.max_tbs &&
            (n + 1) * p.warpsPerTb(sm.simd_width) <= sm.max_warps;
        EXPECT_FALSE(one_more_fits) << p.name;
    }
}

TEST(Profile, WarpsPerTbRoundsUp)
{
    KernelProfile p;
    p.threads_per_tb = 33;
    EXPECT_EQ(p.warpsPerTb(32), 2);
    p.threads_per_tb = 32;
    EXPECT_EQ(p.warpsPerTb(32), 1);
}

TEST(Profile, DynamicParametersAreSane)
{
    for (const KernelProfile &p : benchmarkSuite()) {
        EXPECT_GE(p.cinst_per_minst, 1.0) << p.name;
        EXPECT_GE(p.req_per_minst, 1) << p.name;
        EXPECT_LE(p.req_per_minst, 32) << p.name;
        EXPECT_GE(p.mlp, 1) << p.name;
        EXPECT_LE(p.mlp, 8) << p.name;
        EXPECT_GE(p.reuse_prob, 0.0) << p.name;
        EXPECT_LT(p.reuse_prob, 1.0) << p.name;
        EXPECT_GT(p.instrs_per_warp, 0) << p.name;
    }
}

TEST(Profile, Table2DynamicColumns)
{
    // Spot-check Cinst/Minst and Req/Minst against Table 2.
    EXPECT_DOUBLE_EQ(findProfile("hs").cinst_per_minst, 7.0);
    EXPECT_DOUBLE_EQ(findProfile("3m").cinst_per_minst, 2.0);
    EXPECT_EQ(findProfile("ks").req_per_minst, 17);
    EXPECT_EQ(findProfile("ax").req_per_minst, 11);
    EXPECT_EQ(findProfile("sv").req_per_minst, 3);
}

TEST(Profile, UnknownNameThrowsConfigError)
{
    try {
        findProfile("nope");
        FAIL() << "findProfile accepted an unknown name";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), "ConfigError");
        EXPECT_NE(e.detail().find("'nope'"), std::string::npos)
            << e.detail();
    }
    EXPECT_THROW(makeWorkload({"bp", "nope"}), SimError);
}

} // namespace
} // namespace ckesim

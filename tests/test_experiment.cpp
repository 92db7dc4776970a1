/**
 * @file
 * Unit tests for the bench-harness helpers: class-grouped geomeans
 * and environment-driven sizing.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "metrics/experiment.hpp"
#include "sim/check.hpp"

namespace ckesim {
namespace {

TEST(ClassAggregate, GeomeanPerClass)
{
    ClassAggregate agg;
    agg.add(WorkloadClass::CC, 1.0);
    agg.add(WorkloadClass::CC, 4.0);
    agg.add(WorkloadClass::MM, 9.0);
    EXPECT_NEAR(agg.geomean(WorkloadClass::CC), 2.0, 1e-12);
    EXPECT_NEAR(agg.geomean(WorkloadClass::MM), 9.0, 1e-12);
    EXPECT_DOUBLE_EQ(agg.geomean(WorkloadClass::CM), 0.0);
    EXPECT_EQ(agg.count(WorkloadClass::CC), 2);
    EXPECT_EQ(agg.count(WorkloadClass::CM), 0);
}

TEST(ClassAggregate, GeomeanAllSpansClasses)
{
    ClassAggregate agg;
    agg.add(WorkloadClass::CC, 2.0);
    agg.add(WorkloadClass::MM, 8.0);
    EXPECT_NEAR(agg.geomeanAll(), 4.0, 1e-12);
}

TEST(ClassAggregate, ClampsNonPositiveValues)
{
    ClassAggregate agg;
    agg.add(WorkloadClass::CC, 0.0); // would break a geomean
    agg.add(WorkloadClass::CC, 1.0);
    EXPECT_GT(agg.geomean(WorkloadClass::CC), 0.0);
}

TEST(Experiment, ClassLabels)
{
    EXPECT_STREQ(classLabel(WorkloadClass::CC), "C+C");
    EXPECT_STREQ(classLabel(WorkloadClass::CM), "C+M");
    EXPECT_STREQ(classLabel(WorkloadClass::MM), "M+M");
}

TEST(Experiment, BenchConfigIsAlwaysTheTable1Machine)
{
    const GpuConfig cfg = benchConfig();
    EXPECT_EQ(cfg.num_sms, 16);
    EXPECT_EQ(cfg.dram.num_channels, 16);
}

TEST(Experiment, CyclesOverridableByEnv)
{
    ::setenv("CKESIM_CYCLES", "12345", 1);
    EXPECT_EQ(benchCycles(), Cycle{12345});
    ::unsetenv("CKESIM_CYCLES");
    EXPECT_GT(benchCycles(), Cycle{10000});
    const Cycle by_default = benchCycles();
    ::setenv("CKESIM_CYCLES", "", 1); // empty keeps the default
    EXPECT_EQ(benchCycles(), by_default);

    // A malformed count is refused, never truncated to its prefix.
    for (const char *bad : {"20k", "0", "-5", "12 ", " 12", "1e5", "x",
                            "99999999999999999999"}) {
        ::setenv("CKESIM_CYCLES", bad, 1);
        try {
            (void)benchCycles();
            ADD_FAILURE() << "accepted CKESIM_CYCLES='" << bad << "'";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), "ConfigError") << bad;
            EXPECT_NE(e.detail().find(std::string("CKESIM_CYCLES='") +
                                      bad + "'"),
                      std::string::npos)
                << e.what();
        }
    }
    ::unsetenv("CKESIM_CYCLES");

    for (const char *bad : {"x", "2x"}) {
        ::setenv("CKESIM_JOBS", bad, 1);
        EXPECT_THROW(jobsFromEnv(), SimError) << bad;
    }
    ::unsetenv("CKESIM_JOBS");
    const char *argv_in[] = {"bench", "--jobs", "abc", nullptr};
    char *argv[4];
    for (int i = 0; i < 4; ++i)
        argv[i] = const_cast<char *>(argv_in[i]);
    int argc = 3;
    EXPECT_THROW(parseBenchArgs(argc, argv), SimError);
}

TEST(Experiment, FullModeSwitchesPairList)
{
    ::unsetenv("CKESIM_FULL");
    EXPECT_FALSE(fullMode());
    const std::size_t quick = benchPairs().size();
    ::setenv("CKESIM_FULL", "1", 1);
    EXPECT_TRUE(fullMode());
    EXPECT_EQ(benchPairs().size(), 78u);
    ::unsetenv("CKESIM_FULL");
    EXPECT_LT(quick, 78u);
}

TEST(Experiment, FmtAlignsNumbers)
{
    EXPECT_EQ(fmt(1.5, 7, 3), "  1.500");
    EXPECT_EQ(fmt(-0.25, 6, 2), " -0.25");
}

} // namespace
} // namespace ckesim

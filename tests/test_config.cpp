/**
 * @file
 * Configuration defaults must mirror the paper's Table 1.
 */

#include <gtest/gtest.h>

#include "sim/config.hpp"

namespace ckesim {
namespace {

TEST(Config, Table1Defaults)
{
    GpuConfig cfg;
    EXPECT_EQ(cfg.num_sms, 16);
    EXPECT_EQ(cfg.sm.simd_width, 32);
    EXPECT_EQ(cfg.sm.num_schedulers, 4);
    EXPECT_EQ(cfg.sm.max_threads, 3072);
    EXPECT_EQ(cfg.sm.max_warps, 96);
    EXPECT_EQ(cfg.sm.max_tbs, 16);
    EXPECT_EQ(cfg.l1d.size_bytes, 24 * 1024);
    EXPECT_EQ(cfg.l1d.assoc, 6);
    EXPECT_EQ(cfg.l1d.num_mshrs, 128);
    EXPECT_EQ(cfg.l2.partition_bytes, 128 * 1024);
    EXPECT_EQ(cfg.l2.assoc, 16);
    EXPECT_EQ(cfg.l2.num_mshrs, 128);
    EXPECT_EQ(cfg.dram.num_channels, 16);
    EXPECT_EQ(cfg.icnt.flit_bytes, 32);
    EXPECT_EQ(cfg.numL2Partitions(), 16);
    // 2048KB unified L2 = 16 x 128KB partitions.
    EXPECT_EQ(cfg.numL2Partitions() * cfg.l2.partition_bytes,
              2048 * 1024);
}

TEST(Config, L1SetCountIsPowerOfTwo)
{
    GpuConfig cfg;
    const int sets = cfg.l1d.numSets();
    EXPECT_GT(sets, 0);
    EXPECT_EQ(sets & (sets - 1), 0);
    EXPECT_EQ(sets * cfg.l1d.assoc * cfg.l1d.line_bytes,
              cfg.l1d.size_bytes);
}

TEST(Config, L2SetCountMatchesGeometry)
{
    GpuConfig cfg;
    const int sets = cfg.l2.numSetsPerPartition();
    EXPECT_EQ(sets * cfg.l2.assoc * cfg.l2.line_bytes,
              cfg.l2.partition_bytes);
    EXPECT_EQ(sets & (sets - 1), 0);
}

TEST(Config, SmallConfigShrinksOnlyScale)
{
    GpuConfig cfg = makeSmallConfig(4, 4);
    EXPECT_EQ(cfg.num_sms, 4);
    EXPECT_EQ(cfg.numL2Partitions(), 4);
    // Per-SM microarchitecture unchanged.
    GpuConfig ref;
    EXPECT_EQ(cfg.sm.max_warps, ref.sm.max_warps);
    EXPECT_EQ(cfg.l1d.size_bytes, ref.l1d.size_bytes);
}

TEST(Config, DigestDistinguishesConfigs)
{
    // The snapshot config pin: the field-table hash of the GpuConfig
    // fields (tests/test_fields.cpp walks every field).
    GpuConfig a;
    GpuConfig b;
    b.l1d.size_bytes = 48 * 1024;
    EXPECT_NE(fieldHash(a), fieldHash(b));
    GpuConfig c;
    c.sm.sched_policy = SchedPolicy::LRR;
    EXPECT_NE(fieldHash(a), fieldHash(c));
    GpuConfig d;
    d.dram.access_latency += 1; // outside the old string digest
    EXPECT_NE(fieldHash(a), fieldHash(d));
    EXPECT_EQ(fieldHash(a), fieldHash(GpuConfig{}));
}

} // namespace
} // namespace ckesim

#include "kernels/profile.hpp"

#include <algorithm>
#include <string>

#include "sim/check.hpp"

namespace ckesim {

int
KernelProfile::maxTbsPerSm(const SmConfig &sm) const
{
    int by_tb = sm.max_tbs;
    int by_threads = sm.max_threads / threads_per_tb;
    int by_warps = sm.max_warps / warpsPerTb(sm.simd_width);
    int by_regs = regsPerTb() > 0 ? sm.register_file / regsPerTb()
                                  : sm.max_tbs;
    int by_smem = smem_per_tb > 0 ? sm.smem_bytes / smem_per_tb
                                  : sm.max_tbs;
    return std::max(1, std::min({by_tb, by_threads, by_warps, by_regs,
                                 by_smem}));
}

double
KernelProfile::rfOccupancy(const SmConfig &sm) const
{
    return static_cast<double>(regsPerTb()) * maxTbsPerSm(sm) /
           sm.register_file;
}

double
KernelProfile::smemOccupancy(const SmConfig &sm) const
{
    return static_cast<double>(smem_per_tb) * maxTbsPerSm(sm) /
           sm.smem_bytes;
}

double
KernelProfile::threadOccupancy(const SmConfig &sm) const
{
    return static_cast<double>(threads_per_tb) * maxTbsPerSm(sm) /
           sm.max_threads;
}

double
KernelProfile::tbOccupancy(const SmConfig &sm) const
{
    return static_cast<double>(maxTbsPerSm(sm)) / sm.max_tbs;
}

namespace {

/**
 * Build the 13-benchmark suite. Static demands are solved from the
 * Table 2 occupancies against the Table 1 SM (3072 threads, 16 TB
 * slots, 64K registers, 96KB shared memory); dynamic parameters come
 * from Table 2's Cinst/Minst and Req/Minst columns, with address
 * patterns picked to land in the same miss-rate / rsfail regime.
 */
std::vector<KernelProfile>
buildSuite()
{
    std::vector<KernelProfile> v;

    KernelProfile p;

    // cp (cutcp): C. RF 87.5% SMEM 67% Thread 66.7% TB 100%.
    p = KernelProfile{};
    p.name = "cp";
    p.expected_class = KernelClass::Compute;
    p.threads_per_tb = 128;
    p.regs_per_thread = 28;
    p.smem_per_tb = 4096;
    p.cinst_per_minst = 4.0;
    p.req_per_minst = 2;
    p.sfu_fraction = 0.30;
    p.smem_fraction = 0.30;
    p.write_fraction = 0.08;
    p.pattern = AccessPattern::TiledReuse;
    p.reuse_prob = 0.55;
    p.instrs_per_warp = 4096;
    v.push_back(p);

    // hs (hotspot): C. RF 98.4% SMEM 21.9% Thread 58.3% TB 43.8%.
    p = KernelProfile{};
    p.name = "hs";
    p.expected_class = KernelClass::Compute;
    p.threads_per_tb = 256;
    p.regs_per_thread = 36;
    p.smem_per_tb = 3072;
    p.cinst_per_minst = 7.0;
    p.req_per_minst = 3;
    p.sfu_fraction = 0.15;
    p.smem_fraction = 0.30;
    p.write_fraction = 0.15;
    p.footprint_bytes = 256 << 10;
    p.stream_regions = 6;
    p.pattern = AccessPattern::Streaming;
    p.reuse_prob = 0.03;
    p.instrs_per_warp = 4096;
    v.push_back(p);

    // dc (dxtc): C. RF 56.2% SMEM 33.3% Thread 33.3% TB 100%.
    p = KernelProfile{};
    p.name = "dc";
    p.expected_class = KernelClass::Compute;
    p.threads_per_tb = 64;
    p.regs_per_thread = 36;
    p.smem_per_tb = 2048;
    p.cinst_per_minst = 5.0;
    p.req_per_minst = 1;
    p.sfu_fraction = 0.10;
    p.smem_fraction = 0.25;
    p.write_fraction = 0.10;
    p.pattern = AccessPattern::TiledReuse;
    p.reuse_prob = 0.91;
    p.instrs_per_warp = 4096;
    v.push_back(p);

    // pf (pathfinder): C. RF 75% SMEM 25% Thread 100% TB 75%.
    p = KernelProfile{};
    p.name = "pf";
    p.expected_class = KernelClass::Compute;
    p.threads_per_tb = 256;
    p.regs_per_thread = 16;
    p.smem_per_tb = 2048;
    p.cinst_per_minst = 6.0;
    p.req_per_minst = 2;
    p.sfu_fraction = 0.10;
    p.smem_fraction = 0.25;
    p.write_fraction = 0.10;
    p.footprint_bytes = 256 << 10;
    p.stream_regions = 4;
    p.pattern = AccessPattern::Streaming;
    p.reuse_prob = 0.01;
    p.instrs_per_warp = 4096;
    v.push_back(p);

    // bp (backprop): C. RF 56.2% SMEM 13.3% Thread 100% TB 75%.
    p = KernelProfile{};
    p.name = "bp";
    p.expected_class = KernelClass::Compute;
    p.threads_per_tb = 256;
    p.regs_per_thread = 12;
    p.smem_per_tb = 1088;
    p.cinst_per_minst = 6.0;
    p.req_per_minst = 2;
    p.sfu_fraction = 0.10;
    p.smem_fraction = 0.10;
    p.write_fraction = 0.20;
    p.footprint_bytes = 256 << 10;
    p.stream_regions = 6;
    p.pattern = AccessPattern::Streaming;
    p.reuse_prob = 0.20;
    p.instrs_per_warp = 4096;
    v.push_back(p);

    // bs (bfs): C in this configuration (Section 2.4 notes bs differs
    // from prior work because more miss resources are provisioned).
    // RF 75% SMEM 0% Thread 100% TB 37.5%.
    p = KernelProfile{};
    p.name = "bs";
    p.expected_class = KernelClass::Compute;
    p.threads_per_tb = 512;
    p.regs_per_thread = 16;
    p.smem_per_tb = 0;
    p.cinst_per_minst = 4.0;
    p.req_per_minst = 1;
    p.sfu_fraction = 0.05;
    p.smem_fraction = 0.0;
    p.write_fraction = 0.10;
    p.footprint_bytes = 16 << 20;
    p.stream_regions = 2048;
    p.pattern = AccessPattern::Streaming;
    p.reuse_prob = 0.0;
    p.instrs_per_warp = 4096;
    v.push_back(p);

    // st (stencil): C. RF 75% SMEM 0% Thread 100% TB 37.5%.
    p = KernelProfile{};
    p.name = "st";
    p.expected_class = KernelClass::Compute;
    p.threads_per_tb = 512;
    p.regs_per_thread = 16;
    p.smem_per_tb = 0;
    p.cinst_per_minst = 4.0;
    p.req_per_minst = 1;
    p.sfu_fraction = 0.05;
    p.smem_fraction = 0.0;
    p.write_fraction = 0.15;
    p.footprint_bytes = 16 << 20;
    p.stream_regions = 2048;
    p.pattern = AccessPattern::Streaming;
    p.reuse_prob = 0.33;
    p.instrs_per_warp = 4096;
    v.push_back(p);

    // 3m (3mm): M. RF 56.2% SMEM 0% Thread 100% TB 75%.
    p = KernelProfile{};
    p.name = "3m";
    p.expected_class = KernelClass::Memory;
    p.threads_per_tb = 256;
    p.regs_per_thread = 12;
    p.smem_per_tb = 0;
    p.cinst_per_minst = 2.0;
    p.req_per_minst = 1;
    p.sfu_fraction = 0.0;
    p.smem_fraction = 0.0;
    p.write_fraction = 0.10;
    p.mlp = 6;
    p.pattern = AccessPattern::RandomFootprint;
    p.reuse_prob = 0.37;
    p.footprint_bytes = 2 << 20;
    p.footprint_regions = 64;
    p.instrs_per_warp = 2048;
    v.push_back(p);

    // sv (spmv): M. RF 75% SMEM 0% Thread 100% TB 100%.
    p = KernelProfile{};
    p.name = "sv";
    p.expected_class = KernelClass::Memory;
    p.threads_per_tb = 192;
    p.regs_per_thread = 16;
    p.smem_per_tb = 0;
    p.cinst_per_minst = 3.0;
    p.req_per_minst = 3;
    p.sfu_fraction = 0.0;
    p.smem_fraction = 0.0;
    p.write_fraction = 0.10;
    p.mlp = 1;
    p.pattern = AccessPattern::RandomFootprint;
    p.reuse_prob = 0.35;
    p.footprint_bytes = 512 << 10;
    p.footprint_regions = 64;
    p.instrs_per_warp = 2048;
    v.push_back(p);

    // cd (cfd): M. RF 100% SMEM 0% Thread 33.3% TB 100%.
    p = KernelProfile{};
    p.name = "cd";
    p.expected_class = KernelClass::Memory;
    p.threads_per_tb = 64;
    p.regs_per_thread = 64;
    p.smem_per_tb = 0;
    p.cinst_per_minst = 9.0;
    p.req_per_minst = 6;
    p.sfu_fraction = 0.10;
    p.smem_fraction = 0.0;
    p.write_fraction = 0.20;
    p.footprint_bytes = 16 << 20;
    p.stream_regions = 2048;
    p.mlp = 2;
    p.pattern = AccessPattern::Streaming;
    p.reuse_prob = 0.04;
    p.instrs_per_warp = 2048;
    v.push_back(p);

    // s2 (sad2): M. RF 50% SMEM 0% Thread 66.7% TB 100%.
    p = KernelProfile{};
    p.name = "s2";
    p.expected_class = KernelClass::Memory;
    p.threads_per_tb = 128;
    p.regs_per_thread = 16;
    p.smem_per_tb = 0;
    p.cinst_per_minst = 2.0;
    p.req_per_minst = 2;
    p.sfu_fraction = 0.0;
    p.smem_fraction = 0.0;
    p.write_fraction = 0.10;
    p.mlp = 4;
    p.pattern = AccessPattern::RandomFootprint;
    p.reuse_prob = 0.30;
    p.footprint_bytes = 1 << 20;
    p.footprint_regions = 64;
    p.instrs_per_warp = 2048;
    v.push_back(p);

    // ks (kmeans): M. RF 56.2% SMEM 0% Thread 100% TB 75%.
    p = KernelProfile{};
    p.name = "ks";
    p.expected_class = KernelClass::Memory;
    p.threads_per_tb = 256;
    p.regs_per_thread = 12;
    p.smem_per_tb = 0;
    p.cinst_per_minst = 3.0;
    p.req_per_minst = 17;
    p.sfu_fraction = 0.0;
    p.smem_fraction = 0.0;
    p.write_fraction = 0.05;
    p.mlp = 6;
    p.pattern = AccessPattern::StridedScatter;
    p.reuse_prob = 0.45;
    p.footprint_bytes = 1 << 20;
    p.footprint_regions = 64;
    p.instrs_per_warp = 2048;
    v.push_back(p);

    // ax (ATAX): M. RF 56.2% SMEM 0% Thread 100% TB 75%.
    p = KernelProfile{};
    p.name = "ax";
    p.expected_class = KernelClass::Memory;
    p.threads_per_tb = 256;
    p.regs_per_thread = 12;
    p.smem_per_tb = 0;
    p.cinst_per_minst = 2.0;
    p.req_per_minst = 11;
    p.sfu_fraction = 0.0;
    p.smem_fraction = 0.0;
    p.write_fraction = 0.05;
    p.mlp = 6;
    p.pattern = AccessPattern::StridedScatter;
    p.reuse_prob = 0.25;
    p.footprint_bytes = 4 << 20;
    p.footprint_regions = 64;
    p.instrs_per_warp = 2048;
    v.push_back(p);

    return v;
}

} // namespace

const std::vector<KernelProfile> &
benchmarkSuite()
{
    static const std::vector<KernelProfile> suite = buildSuite();
    return suite;
}

const KernelProfile &
findProfile(std::string_view name)
{
    for (const KernelProfile &p : benchmarkSuite())
        if (p.name == name)
            return p;
    SimCtx ctx;
    ctx.module = "profile";
    raiseSimError("ConfigError", ctx,
                  "unknown kernel profile '" + std::string(name) + "'");
}

std::vector<const KernelProfile *>
kernelsOfClass(KernelClass cls)
{
    std::vector<const KernelProfile *> out;
    for (const KernelProfile &p : benchmarkSuite())
        if (p.expected_class == cls)
            out.push_back(&p);
    return out;
}

} // namespace ckesim

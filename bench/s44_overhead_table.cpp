/**
 * @file
 * Reproduces the Section 4.4 hardware-overhead accounting: the
 * per-SM storage cost of the MILG instances (one per kernel) and the
 * QBMI counters. bench_s44_overhead times the decision logic itself.
 */

#include "experiments.hpp"

#include <cstdio>

#include "core/milg.hpp"
#include "metrics/table.hpp"

namespace ckesim::eval {

void
printOverheadTable()
{
    printHeader("Section 4.4: hardware overhead per SM (2 concurrent "
                "kernels)");
    const int milg_bits = Milg::kStorageBits;
    // QBMI: one more 10-bit memory instruction counter per kernel
    // plus quota registers (we count 16-bit quota registers).
    const int qbmi_bits_per_kernel = 10 + 16;
    const int kernels = 2;
    std::printf("MILG: %d-bit inflight peak + %d-bit rsfail + "
                "%d-bit request counter = %d bits x %d kernels = "
                "%d bits\n",
                Milg::kInflightBits, Milg::kRsFailBits,
                Milg::kRequestBits, milg_bits, kernels,
                milg_bits * kernels);
    std::printf("QBMI: 10-bit memory instruction counter + 16-bit "
                "quota = %d bits x %d kernels = %d bits\n",
                qbmi_bits_per_kernel, kernels,
                qbmi_bits_per_kernel * kernels);
    const int total_bits =
        (milg_bits + qbmi_bits_per_kernel) * kernels;
    std::printf("total: %d bits (~%d bytes) per SM — negligible "
                "against a multi-mm^2 SM (paper Section 4.4)\n",
                total_bits, (total_bits + 7) / 8);
}

} // namespace ckesim::eval

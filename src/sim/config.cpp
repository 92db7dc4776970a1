#include "sim/config.hpp"

#include <string>
#include <type_traits>

#include "sim/check.hpp"

namespace ckesim {

namespace {

/** Throw a ConfigError naming the offending field. */
[[noreturn]] void
configFail(const std::string &field, const std::string &why)
{
    SimCtx ctx;
    ctx.module = "config";
    raiseSimError("ConfigError", ctx, field + ": " + why);
}

/** Enforces each table entry's lower bound, naming the field by
 *  its dotted path ("sm.alu_latency"). */
struct BoundCheck
{
    std::string prefix;

    template <class M>
    void
    operator()(const Field &f, const M &m)
    {
        if constexpr (HasFields<const M>) {
            BoundCheck nested{prefix + f.name + "."};
            fields(nested, m);
        } else if constexpr (std::is_same_v<M, int>) {
            if (m < f.min)
                configFail(prefix + f.name,
                           "must be >= " + std::to_string(f.min) +
                               ", got " + std::to_string(m));
        }
    }
};

bool
isPowerOfTwo(int v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

/** Shared geometry checks for the L1D and L2 tag arrays (sizes and
 *  associativity are already known to be positive). */
void
validateCacheGeometry(const char *name, int size_bytes, int line_bytes,
                      int assoc)
{
    if (!isPowerOfTwo(line_bytes))
        configFail(name, "line_bytes must be a power of two, got " +
                             std::to_string(line_bytes));
    if (size_bytes % (line_bytes * assoc) != 0) {
        configFail(name,
                   "size " + std::to_string(size_bytes) +
                       " is not a multiple of line_bytes*assoc = " +
                       std::to_string(line_bytes * assoc) +
                       " (assoc/set-count mismatch)");
    }
    const int sets = size_bytes / (line_bytes * assoc);
    if (!isPowerOfTwo(sets)) {
        configFail(name, "set count " + std::to_string(sets) +
                             " is not a power of two (xor indexing "
                             "requires it)");
    }
}

} // namespace

void
GpuConfig::validate() const
{
    BoundCheck bounds;
    fields(bounds, *this);

    // Cross-field rules.
    if (sm.max_threads < sm.simd_width)
        configFail("sm.max_threads",
                   "must hold at least one warp (simd_width)");
    validateCacheGeometry("l1d", l1d.size_bytes, l1d.line_bytes,
                          l1d.assoc);
    validateCacheGeometry("l2", l2.partition_bytes, l2.line_bytes,
                          l2.assoc);
    if (l2.line_bytes != l1d.line_bytes)
        configFail("l2.line_bytes",
                   "must match l1d.line_bytes (" +
                       std::to_string(l1d.line_bytes) + "), got " +
                       std::to_string(l2.line_bytes));
    // A dirty L2 eviction needs two DRAM queue slots in one cycle
    // (writeback + fetch), so a 1-deep queue deadlocks the partition.
    if (dram.queue_depth < 2)
        configFail("dram.queue_depth",
                   "must be >= 2 (dirty eviction enqueues a "
                   "writeback and a fetch together), got " +
                       std::to_string(dram.queue_depth));
    if (dram.row_bytes % l2.line_bytes != 0)
        configFail("dram.row_bytes",
                   "must be a multiple of the line size " +
                       std::to_string(l2.line_bytes) + ", got " +
                       std::to_string(dram.row_bytes));
    if (integrity.watchdog_timeout > 0 &&
        integrity.watchdog_timeout < integrity.check_interval)
        configFail("integrity.watchdog_timeout",
                   "must be >= check_interval or 0 (disabled)");
}

GpuConfig
makeSmallConfig(int num_sms, int num_channels)
{
    GpuConfig cfg;
    cfg.num_sms = num_sms;
    cfg.dram.num_channels = num_channels;
    return cfg;
}

} // namespace ckesim

/**
 * @file
 * Structured-error core: SimError carries machine context through the
 * SIM_CHECK / SIM_INVARIANT macros, and the validation entry points
 * (GpuConfig::validate, SchemeSpec::validate, validateFaultSpec)
 * reject malformed inputs with the offending field named.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "gpu.hpp"
#include "sim/check.hpp"
#include "sim/config.hpp"
#include "sim/fault.hpp"

namespace ckesim {
namespace {

TEST(SimCheck, PassingConditionsAreSilent)
{
    SimCtx ctx;
    EXPECT_NO_THROW(SIM_CHECK(1 + 1 == 2, ctx, "unused"));
    EXPECT_NO_THROW(SIM_INVARIANT(true, ctx, "unused"));
}

TEST(SimCheck, FailureCarriesFullContext)
{
    SimCtx ctx;
    ctx.cycle = Cycle{123};
    ctx.sm_id = SmId{2};
    ctx.kernel = KernelId{1};
    ctx.module = "l1d";
    try {
        SIM_CHECK(2 + 2 == 5, ctx, "value was " << 42);
        FAIL() << "SIM_CHECK did not throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), "SIM_CHECK");
        EXPECT_EQ(e.ctx().cycle, Cycle{123});
        EXPECT_EQ(e.ctx().sm_id, SmId{2});
        EXPECT_EQ(e.ctx().kernel, KernelId{1});
        EXPECT_EQ(e.detail(), "value was 42");
        const std::string what = e.what();
        EXPECT_NE(what.find("cycle=123"), std::string::npos);
        EXPECT_NE(what.find("sm=2"), std::string::npos);
        EXPECT_NE(what.find("kernel=1"), std::string::npos);
        EXPECT_NE(what.find("module=l1d"), std::string::npos);
        EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos);
        EXPECT_NE(what.find("value was 42"), std::string::npos);
    }
}

TEST(SimCheck, InvariantReportsItsOwnKind)
{
    SimCtx ctx;
    try {
        SIM_INVARIANT(false, ctx, "broken");
        FAIL() << "SIM_INVARIANT did not throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), "SIM_INVARIANT");
    }
}

TEST(SimCheck, UnknownContextFieldsPrintPlaceholders)
{
    const std::string s = formatSimCtx(SimCtx{});
    EXPECT_NE(s.find("cycle=?"), std::string::npos);
    EXPECT_NE(s.find("sm=-"), std::string::npos);
    EXPECT_NE(s.find("kernel=-"), std::string::npos);
}

TEST(SimCheck, RaiseSimErrorKeepsKind)
{
    SimCtx ctx;
    ctx.module = "gpu";
    try {
        raiseSimError("Watchdog", ctx, "stuck");
        FAIL() << "raiseSimError did not throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), "Watchdog");
        EXPECT_EQ(e.expr(), "");
        EXPECT_EQ(e.detail(), "stuck");
    }
}

// ---- GpuConfig::validate rejection table -------------------------------

struct BadConfig
{
    const char *name;    ///< expected substring of the error detail
    std::function<void(GpuConfig &)> corrupt;
};

/** One bounded int entry of the GpuConfig field tables. */
struct Bound
{
    std::string path; ///< dotted, e.g. "sm.alu_latency"
    int *value;
    int min;
};

struct CollectBounds
{
    std::vector<Bound> &out;
    std::string prefix;

    template <class M>
    void
    operator()(const Field &f, M &m)
    {
        if constexpr (HasFields<M>) {
            CollectBounds nested{out, prefix + f.name + "."};
            fields(nested, m);
        } else if constexpr (std::is_same_v<M, int>) {
            if (f.min != kNoMin)
                out.push_back({prefix + f.name, &m, f.min});
        }
    }
};

std::vector<Bound>
boundedFields(GpuConfig &cfg)
{
    std::vector<Bound> out;
    CollectBounds collect{out, ""};
    fields(collect, cfg);
    return out;
}

TEST(ConfigValidate, AcceptsTable1AndSmallConfigs)
{
    EXPECT_NO_THROW(GpuConfig{}.validate());
    EXPECT_NO_THROW(makeSmallConfig(4, 4).validate());
    EXPECT_NO_THROW(makeSmallConfig(1, 1).validate());
}

TEST(ConfigValidate, RejectsMalformedConfigsByName)
{
    const std::vector<BadConfig> table = {
        {"num_sms", [](GpuConfig &c) { c.num_sms = 0; }},
        {"sm.lsu_queue_depth",
         [](GpuConfig &c) { c.sm.lsu_queue_depth = 0; }},
        {"sm.max_warps", [](GpuConfig &c) { c.sm.max_warps = -1; }},
        {"l1d", [](GpuConfig &c) { c.l1d.assoc = 5; }},
        {"l1d", [](GpuConfig &c) { c.l1d.line_bytes = 48; }},
        {"l1d.num_mshrs", [](GpuConfig &c) { c.l1d.num_mshrs = 0; }},
        {"l1d.mshr_merge", [](GpuConfig &c) { c.l1d.mshr_merge = 0; }},
        {"l1d.miss_queue_depth",
         [](GpuConfig &c) { c.l1d.miss_queue_depth = 0; }},
        {"l2", [](GpuConfig &c) { c.l2.assoc = 7; }},
        {"l2.line_bytes", [](GpuConfig &c) { c.l2.line_bytes = 128; }},
        {"l2.miss_queue_depth",
         [](GpuConfig &c) { c.l2.miss_queue_depth = -3; }},
        {"icnt.input_queue_depth",
         [](GpuConfig &c) { c.icnt.input_queue_depth = 0; }},
        {"dram.queue_depth",
         [](GpuConfig &c) { c.dram.queue_depth = 1; }},
        {"dram.row_bytes", [](GpuConfig &c) { c.dram.row_bytes = 96; }},
        {"integrity.check_interval",
         [](GpuConfig &c) { c.integrity.check_interval = 0; }},
        {"integrity.watchdog_timeout",
         [](GpuConfig &c) {
             c.integrity.check_interval = 256;
             c.integrity.watchdog_timeout = 100;
         }},
    };

    for (const BadConfig &bad : table) {
        GpuConfig cfg;
        bad.corrupt(cfg);
        try {
            cfg.validate();
            FAIL() << "validate accepted bad " << bad.name;
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), "ConfigError") << bad.name;
            EXPECT_NE(e.detail().find(bad.name), std::string::npos)
                << "error for " << bad.name
                << " does not name the field: " << e.detail();
        }
    }

    // Every bounded field-table entry, set to its bound minus 1.
    GpuConfig probe;
    const std::size_t bounded = boundedFields(probe).size();
    EXPECT_EQ(bounded, 38u);
    for (std::size_t i = 0; i < bounded; ++i) {
        GpuConfig cfg;
        const Bound b = boundedFields(cfg)[i];
        *b.value = b.min - 1;
        try {
            cfg.validate();
            ADD_FAILURE() << "validate accepted " << b.path << " = "
                          << b.min - 1;
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), "ConfigError") << b.path;
            EXPECT_EQ(e.detail(), b.path + ": must be >= " +
                                      std::to_string(b.min) + ", got " +
                                      std::to_string(b.min - 1));
        }
    }
}

TEST(ConfigValidate, GpuConstructorRejectsBadConfig)
{
    GpuConfig cfg = makeSmallConfig(2, 2);
    cfg.sm.lsu_queue_depth = 0;
    const Workload wl = makeWorkload({"bp", "sv"});
    const SchemeSpec spec = makeScheme(PartitionScheme::Spatial,
                                       BmiMode::None, MilMode::None);
    EXPECT_THROW(Gpu(cfg, wl, spec), SimError);
}

// ---- SchemeSpec::validate ---------------------------------------------

TEST(SchemeValidate, RejectsBadKnobs)
{
    const GpuConfig cfg = makeSmallConfig(2, 2);

    SchemeSpec smk;
    smk.smk_warp_quota = true; // isolated IPCs missing
    EXPECT_THROW(smk.validate(cfg), SimError);

    SchemeSpec ucp;
    ucp.ucp = true;
    ucp.ucp_interval = Cycle{0};
    EXPECT_THROW(ucp.validate(cfg), SimError);

    SchemeSpec ws;
    ws.partition = PartitionScheme::WarpedSlicer;
    ws.ws_profile_window = Cycle{0};
    EXPECT_THROW(ws.validate(cfg), SimError);

    SchemeSpec smil;
    smil.smil_limits[0] = -2;
    EXPECT_THROW(smil.validate(cfg), SimError);

    EXPECT_NO_THROW(SchemeSpec{}.validate(cfg));
}

TEST(SchemeValidate, RejectsBadFaultSpecs)
{
    const GpuConfig cfg = makeSmallConfig(2, 2);

    SchemeSpec none;
    none.faults.push_back(FaultSpec{}); // kind None
    EXPECT_THROW(none.validate(cfg), SimError);

    SchemeSpec window;
    window.faults.push_back(
        {FaultKind::DropFill, Cycle{100}, Cycle{100}, 0, -1,
         Cycle{}}); // empty window
    EXPECT_THROW(window.validate(cfg), SimError);

    SchemeSpec target;
    target.faults.push_back(
        {FaultKind::DropFill, Cycle{}, kNeverCycle, 7, -1,
         Cycle{}}); // no SM 7
    EXPECT_THROW(target.validate(cfg), SimError);

    SchemeSpec channel;
    channel.faults.push_back(
        {FaultKind::FreezeDram, Cycle{}, kNeverCycle, 5, -1,
         Cycle{}});
    EXPECT_THROW(channel.validate(cfg), SimError);

    SchemeSpec delay;
    delay.faults.push_back(
        {FaultKind::DelayFill, Cycle{}, kNeverCycle, 0, -1,
         Cycle{}}); // delay 0
    EXPECT_THROW(delay.validate(cfg), SimError);

    SchemeSpec ok;
    ok.faults.push_back(
        {FaultKind::DropFill, Cycle{1000}, kNeverCycle, 0, 4,
         Cycle{}});
    ok.faults.push_back(
        {FaultKind::DelayFill, Cycle{}, kNeverCycle, -1, -1,
         Cycle{50}});
    EXPECT_NO_THROW(ok.validate(cfg));
}

} // namespace
} // namespace ckesim

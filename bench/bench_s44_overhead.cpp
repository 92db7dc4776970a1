/**
 * @file
 * Section 4.4's software-cost microbenchmarks of the decision logic
 * (the paper argues the logic is off the critical path; here we show
 * it is nanoseconds per event). The section's storage table is the
 * s44/overhead_table experiment of ckesim-eval.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <vector>

#include "core/issue_policy.hpp"
#include "core/milg.hpp"
#include "core/qbmi.hpp"

namespace {

using namespace ckesim;

void
milgUpdate(benchmark::State &state)
{
    Milg m;
    std::uint64_t i = 0;
    for (auto _ : state) {
        m.observeInflight(static_cast<int>(i % 128));
        if (i % 3 == 0)
            m.onRsFail();
        m.onRequest();
        ++i;
    }
    benchmark::DoNotOptimize(m.limit());
}

void
qbmiQuotaRecompute(benchmark::State &state)
{
    const std::vector<double> rates = {2.0, 17.0};
    for (auto _ : state) {
        auto q = qbmiQuotas(rates);
        benchmark::DoNotOptimize(q.data());
    }
}

void
controllerAdmission(benchmark::State &state)
{
    IssuePolicyConfig cfg;
    cfg.bmi = BmiMode::QBMI;
    cfg.mil = MilMode::Dynamic;
    IssueController c(cfg, 2);
    std::array<bool, kMaxKernelsPerSm> demand{};
    demand[0] = demand[1] = true;
    c.beginCycle(demand);
    std::uint64_t i = 0;
    for (auto _ : state) {
        const KernelId k = static_cast<KernelId>(i & 1);
        if (c.admitMemIssue(k)) {
            c.onMemInstrIssued(k);
            c.onMemInstrCompleted(k);
        }
        c.onRequestServiced(k);
        ++i;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::RegisterBenchmark("s44/milg_update_per_event",
                                 milgUpdate);
    benchmark::RegisterBenchmark("s44/qbmi_quota_recompute",
                                 qbmiQuotaRecompute);
    benchmark::RegisterBenchmark("s44/controller_admission",
                                 controllerAdmission);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 2;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

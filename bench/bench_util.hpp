/**
 * @file
 * google-benchmark adapter for the per-figure bench binaries. The
 * experiments themselves live in the shared ExperimentRegistry
 * (src/metrics/experiment.hpp) and know nothing about the benchmark
 * framework; this header wires the registry into benchmark cases and
 * handles the shared --jobs/--list/--filter/--tables/--resume CLI
 * knobs, so every bench runs standalone, supports parallel sweeps,
 * and also reports wall time + headline counters through the
 * framework.
 */

#ifndef CKESIM_BENCH_BENCH_UTIL_HPP
#define CKESIM_BENCH_BENCH_UTIL_HPP

#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <string>

#include "metrics/experiment.hpp"
#include "sim/check.hpp"

namespace ckesim::benchutil {

/** Register a named experiment into the shared registry. */
inline void
registerExperiment(const std::string &name, ExperimentFn body)
{
    ExperimentRegistry::instance().add(name, std::move(body));
}

/**
 * Standard main body: parse shared flags, register experiments via
 * @p setup, then run — through google-benchmark by default, or
 * directly in --tables mode (stable stdout for diffing; engine stats
 * go to stderr). An argument neither parser knows, or a malformed
 * count (--jobs, CKESIM_JOBS, CKESIM_CYCLES), exits 2 before any
 * simulation starts.
 */
inline int
benchMain(int argc, char **argv, const std::function<void()> &setup)
{
    BenchOptions opts;
    try {
        opts = parseBenchArgs(argc, argv);
        (void)benchCycles(); // experiments read it only once running
    } catch (const SimError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    // --tables and --list never reach google-benchmark, so nothing
    // else would look at a leftover argument.
    if ((opts.tables_only || opts.list) && argc > 1) {
        std::fprintf(stderr,
                     "unknown argument '%s'\n"
                     "usage: %s [--jobs N] [--filter S] "
                     "[--resume PATH]\n"
                     "       [--tables | --list | "
                     "google-benchmark flags]\n",
                     argv[1], argv[0]);
        return 2;
    }
    setBenchJobs(opts.jobs);
    if (!opts.resume.empty()) {
        const std::size_t recovered =
            attachBenchJournal(opts.resume);
        std::fprintf(stderr,
                     "journal '%s': %zu result(s) recovered\n",
                     opts.resume.c_str(), recovered);
    }
    setup();

    const auto &entries = ExperimentRegistry::instance().entries();
    if (opts.list) {
        for (const auto &e : entries)
            std::printf("%s\n", e.name.c_str());
        return 0;
    }

    if (opts.tables_only) {
        for (const auto &e : entries) {
            if (!opts.matches(e.name))
                continue;
            BenchReport report;
            e.fn(report);
        }
        printSweepStats(stderr);
        return 0;
    }

    for (const auto &e : entries) {
        if (!opts.matches(e.name))
            continue;
        benchmark::RegisterBenchmark(
            e.name.c_str(),
            [fn = e.fn](benchmark::State &state) {
                for (auto _ : state) {
                    BenchReport report;
                    fn(report);
                    exportSweepStats(report);
                    for (const auto &[key, value] : report.counters)
                        state.counters[key] = value;
                }
            })
            ->Unit(benchmark::kMillisecond)
            ->Iterations(1);
    }

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 2;
    benchmark::RunSpecifiedBenchmarks();
    printSweepStats(stderr);
    benchmark::Shutdown();
    return 0;
}

} // namespace ckesim::benchutil

#endif // CKESIM_BENCH_BENCH_UTIL_HPP

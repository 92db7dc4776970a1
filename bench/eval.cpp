/**
 * @file
 * The evaluation driver: runs the experiments of experiments.hpp that
 * match --filter, in table order, on one SweepEngine, then prints the
 * engine's summary line to stderr. Stdout holds only the tables, so
 * it diffs byte for byte across --jobs and --resume. Built as
 * ckesim-eval, which serves every experiment, and once per figure
 * binary that ckebench runs by name, which serves the one experiment
 * CKESIM_EVAL_ONLY names (bench/CMakeLists.txt).
 */

#include <cstdio>
#include <string_view>
#include <vector>

#include "experiments.hpp"
#include "metrics/experiment.hpp"
#include "sim/check.hpp"

int
main(int argc, char **argv)
{
    using namespace ckesim;

    BenchOptions opts;
    try {
        opts = parseBenchArgs(argc, argv);
        (void)benchCycles(); // experiments read it only once running
    } catch (const SimError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    if (argc > 1) {
        std::fprintf(stderr,
                     "unknown argument '%s'\n"
                     "usage: %s [--jobs N] [--filter S] "
                     "[--resume PATH] [--tables | --list]\n",
                     argv[1], argv[0]);
        return 2;
    }

    const std::string_view only = CKESIM_EVAL_ONLY;
    auto served = [&](const eval::Experiment &e) {
        return only.empty() || e.name == only;
    };
    std::vector<const eval::Experiment *> chosen;
    for (const eval::Experiment &e : eval::kExperiments)
        if (served(e) && opts.matches(e.name))
            chosen.push_back(&e);
    // A mistyped filter must not pass for an empty evaluation.
    if (chosen.empty()) {
        std::fprintf(stderr, "no experiment matches '%s'; experiments:\n",
                     opts.filter.c_str());
        for (const eval::Experiment &e : eval::kExperiments)
            if (served(e))
                std::fprintf(stderr, "  %s\n", e.name);
        return 2;
    }
    if (opts.list) {
        for (const eval::Experiment *e : chosen)
            std::printf("%s\n", e->name);
        return 0;
    }

    setBenchJobs(opts.jobs);
    if (!opts.resume.empty()) {
        const std::size_t recovered = attachBenchJournal(opts.resume);
        std::fprintf(stderr, "journal '%s': %zu result(s) recovered\n",
                     opts.resume.c_str(), recovered);
    }
    for (const eval::Experiment *e : chosen)
        e->run();
    printSweepStats(stderr);
    return 0;
}

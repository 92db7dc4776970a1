#include "metrics/experiment.hpp"

#include <cstdlib>
#include <cstring>
#include <memory>

#include "metrics/journal.hpp"

namespace ckesim {

bool
fullMode()
{
    const char *env = std::getenv("CKESIM_FULL");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

GpuConfig
benchConfig()
{
    // Always the paper's full Table 1 machine: the L2-capacity /
    // working-set balance the kernels are calibrated against does
    // not survive shrinking the partition count. Quick mode shortens
    // runs and subsets workloads instead.
    return GpuConfig{};
}

Cycle
benchCycles()
{
    if (const char *env = std::getenv("CKESIM_CYCLES")) {
        const long v = std::atol(env);
        if (v > 0)
            return Cycle{v};
    }
    return fullMode() ? Cycle{400000} : Cycle{60000};
}

std::vector<Workload>
benchPairs()
{
    return fullMode() ? allSuitePairs() : representativePairs();
}

// ---- CLI knobs ---------------------------------------------------------

bool
BenchOptions::matches(const std::string &name) const
{
    return filter.empty() || name.find(filter) != std::string::npos;
}

int
jobsFromEnv()
{
    if (const char *env = std::getenv("CKESIM_JOBS")) {
        const long v = std::atol(env);
        if (v > 0)
            return static_cast<int>(v);
    }
    return 0;
}

namespace {

/** "--flag=value" or "--flag value"; empty when @p arg isn't flag. */
bool
takeValueFlag(const char *flag, int &argc, char **argv, int &i,
              std::string &out)
{
    const std::size_t len = std::strlen(flag);
    if (std::strncmp(argv[i], flag, len) != 0)
        return false;
    if (argv[i][len] == '=') {
        out = argv[i] + len + 1;
        return true;
    }
    if (argv[i][len] == '\0' && i + 1 < argc) {
        out = argv[i + 1];
        ++i; // consume the value too
        return true;
    }
    return false;
}

} // namespace

BenchOptions
parseBenchArgs(int &argc, char **argv)
{
    BenchOptions opts;
    opts.jobs = jobsFromEnv();

    int out = 1;
    for (int i = 1; i < argc; ++i) {
        std::string value;
        if (std::strcmp(argv[i], "--list") == 0) {
            opts.list = true;
        } else if (std::strcmp(argv[i], "--tables") == 0) {
            opts.tables_only = true;
        } else if (takeValueFlag("--jobs", argc, argv, i, value)) {
            const long v = std::atol(value.c_str());
            if (v > 0)
                opts.jobs = static_cast<int>(v);
        } else if (takeValueFlag("--filter", argc, argv, i, value)) {
            opts.filter = value;
        } else if (takeValueFlag("--resume", argc, argv, i, value)) {
            opts.resume = value;
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    argv[argc] = nullptr;
    return opts;
}

// ---- experiment registry ----------------------------------------------

ExperimentRegistry &
ExperimentRegistry::instance()
{
    static ExperimentRegistry registry;
    return registry;
}

void
ExperimentRegistry::add(std::string name, ExperimentFn fn)
{
    entries_.push_back(Entry{std::move(name), std::move(fn)});
}

// ---- shared engine -----------------------------------------------------

namespace {

int &
benchJobsSlot()
{
    static int jobs = 0;
    return jobs;
}

} // namespace

void
setBenchJobs(int jobs)
{
    benchJobsSlot() = jobs;
}

SweepEngine &
benchEngine()
{
    static SweepEngine engine(benchJobsSlot() > 0 ? benchJobsSlot()
                                                  : jobsFromEnv());
    return engine;
}

std::size_t
attachBenchJournal(const std::string &path)
{
    // Static: the journal must outlive every job the engine ever
    // runs, exactly like the engine itself.
    static ResultJournal journal;
    journal.open(path);
    benchEngine().setJournal(&journal);
    return journal.size();
}

void
printSweepStats(std::FILE *out)
{
    const SweepStats s = benchEngine().stats();
    std::fprintf(out,
                 "sweep engine: %d jobs, %llu sims executed, %llu "
                 "memo hits (%.0f%% hit rate), isolated runs %llu "
                 "executed / %llu reused\n",
                 benchEngine().jobs(),
                 static_cast<unsigned long long>(s.sims_executed),
                 static_cast<unsigned long long>(s.memo_hits),
                 100.0 * s.hitRate(),
                 static_cast<unsigned long long>(s.isolated_runs),
                 static_cast<unsigned long long>(s.isolated_hits));
}

void
exportSweepStats(BenchReport &report)
{
    const SweepStats s = benchEngine().stats();
    report.counters["sweep_sims_executed"] =
        static_cast<double>(s.sims_executed);
    report.counters["sweep_memo_hits"] =
        static_cast<double>(s.memo_hits);
    report.counters["sweep_iso_reused"] =
        static_cast<double>(s.isolated_hits);
}

} // namespace ckesim

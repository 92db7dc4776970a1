#include "metrics/experiment.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "metrics/journal.hpp"
#include "sim/check.hpp"

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
    const char *env = std::getenv("CKESIM_CYCLES");
    if (env != nullptr && env[0] != '\0')
        return Cycle{parseCount("CKESIM_CYCLES", env)};
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
parseCount(const char *what, const std::string &text)
{
    int v = 0;
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc{} || stop != end || v <= 0) {
        SimCtx ctx;
        ctx.module = "experiment";
        raiseSimError("ConfigError", ctx,
                      std::string(what) + "='" + text +
                          "' is not a whole number greater than 0");
    }
    return v;
}

int
jobsFromEnv()
{
    const char *env = std::getenv("CKESIM_JOBS");
    if (env != nullptr && env[0] != '\0')
        return parseCount("CKESIM_JOBS", env);
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
            // The only mode; callers may still name it.
        } else if (takeValueFlag("--jobs", argc, argv, i, value)) {
            opts.jobs = parseCount("--jobs", value);
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
                 "executed / %llu reused, WS prefixes %llu run / %llu "
                 "restored, %llu journal hits\n",
                 benchEngine().jobs(),
                 static_cast<unsigned long long>(s.sims_executed),
                 static_cast<unsigned long long>(s.memo_hits),
                 100.0 * s.hitRate(),
                 static_cast<unsigned long long>(s.isolated_runs),
                 static_cast<unsigned long long>(s.isolated_hits),
                 static_cast<unsigned long long>(s.prefix_runs),
                 static_cast<unsigned long long>(s.prefix_restores),
                 static_cast<unsigned long long>(s.journal_hits));
}

} // namespace ckesim

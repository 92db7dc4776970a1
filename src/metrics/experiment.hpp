/**
 * @file
 * Shared experiment-harness helpers for the evaluation driver and
 * examples: environment-driven sizing (quick vs full runs), the
 * --jobs/--list/--filter/--resume CLI knobs, and the process-wide
 * SweepEngine every experiment shares.
 */

#ifndef CKESIM_METRICS_EXPERIMENT_HPP
#define CKESIM_METRICS_EXPERIMENT_HPP

#include <cstdio>
#include <string>
#include <vector>

#include "kernels/workload.hpp"
#include "metrics/sweep_engine.hpp"
#include "metrics/table.hpp"
#include "sim/config.hpp"

namespace ckesim {

/**
 * Is CKESIM_FULL set? Full mode runs 400K measured cycles instead of
 * 60K, all 78 suite pairs instead of 17, and Figure 9's full limit
 * grid; the machine is the same.
 */
bool fullMode();

/** Bench GPU configuration: always the 16-SM Table 1 machine. */
GpuConfig benchConfig();

/** Measurement cycles per simulation (env CKESIM_CYCLES overrides;
 *  a malformed value raises ConfigError). */
Cycle benchCycles();

/** Pair list (all 78 suite pairs full / representative 17 quick). */
std::vector<Workload> benchPairs();

// ---- CLI knobs of the evaluation driver --------------------------------

/**
 * A count given on the command line or in the environment: a whole
 * decimal number from 1 to INT_MAX with nothing after it. Anything
 * else raises SimError kind "ConfigError" naming @p what and @p text.
 */
int parseCount(const char *what, const std::string &text);

/** Options recognized (and stripped from argv) by the driver. */
struct BenchOptions
{
    /** Simulation jobs; 0 = CKESIM_JOBS env, else hardware
     *  concurrency. */
    int jobs = 0;
    /** --list: print the matching experiment names and exit. */
    bool list = false;
    /** --filter substr: run only experiments whose name contains it. */
    std::string filter;
    /** --resume path: journal completed jobs to @p path and serve any
     *  already-journaled results instead of re-simulating, so a killed
     *  sweep picks up where it died. */
    std::string resume;

    bool matches(const std::string &name) const;
};

/**
 * Extract --jobs N / --list / --filter S / --resume P from argv (both
 * "--flag value" and "--flag=value" forms), compacting argv so that
 * what is left is what the caller does not know. --tables is
 * accepted and changes nothing: the tables are the only output. A
 * malformed count raises ConfigError.
 */
BenchOptions parseBenchArgs(int &argc, char **argv);

/** Jobs requested via CKESIM_JOBS (0 = unset or empty; a malformed
 *  value raises ConfigError). */
int jobsFromEnv();

// ---- shared engine -----------------------------------------------------

/**
 * Pin the job count of the process-wide bench engine; must be called
 * before the first benchEngine() use to take effect.
 */
void setBenchJobs(int jobs);

/**
 * The engine shared by every experiment in this process: one memo
 * cache, so isolated baselines computed for one figure are reused by
 * the next.
 */
SweepEngine &benchEngine();

/**
 * Open (or create) the write-ahead results journal at @p path and
 * attach it to benchEngine(): completed jobs are durably recorded and
 * a re-run resumes instead of recomputing. Returns the number of
 * results recovered from an earlier (possibly killed) run.
 */
std::size_t attachBenchJournal(const std::string &path);

/** One-line execution/memo summary of benchEngine() to @p out. */
void printSweepStats(std::FILE *out);

} // namespace ckesim

#endif // CKESIM_METRICS_EXPERIMENT_HPP

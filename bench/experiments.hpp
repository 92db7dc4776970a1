/**
 * @file
 * The paper's evaluation as one ordered table: Table 2, Figures 2-14
 * and Sections 4.3-4.5, one function each. Every experiment prints
 * its tables to stdout and simulates through benchEngine()
 * (metrics/experiment.hpp), so experiments run in one process share
 * one memo. eval.cpp is the driver.
 */

#ifndef CKESIM_BENCH_EXPERIMENTS_HPP
#define CKESIM_BENCH_EXPERIMENTS_HPP

namespace ckesim::eval {

void runTable2();
void runFigure2();
void runScalability();
void runFigure4();
void runFigure5();
void runFigure6();
void runFigure8();
void runFigure9();
void runFigure11();
void runFigure12();
void runFigure13();
void runFigure14();
void runSensitivity();
void printOverheadTable();
void runDiscussion();

struct Experiment
{
    /** What --list prints and --filter matches. */
    const char *name;
    void (*run)();
};

/** Every experiment, in the order the driver lists and runs them. */
inline constexpr Experiment kExperiments[] = {
    {"table2/characterization", runTable2},
    {"figure2/utilization", runFigure2},
    {"figure3/scalability", runScalability},
    {"figure4/ws_gap", runFigure4},
    {"figure5/cache_partitioning", runFigure5},
    {"figure6/l1d_timeline", runFigure6},
    {"figure8/bmi_timeline", runFigure8},
    {"figure9/smil_sweep", runFigure9},
    {"figure11/qbmi_dmil", runFigure11},
    {"figure12/warped_slicer_eval", runFigure12},
    {"figure13/smk_eval", runFigure13},
    {"figure14/three_kernels", runFigure14},
    {"s43/sensitivity", runSensitivity},
    {"s44/overhead_table", printOverheadTable},
    {"s45/discussion", runDiscussion},
};

} // namespace ckesim::eval

#endif // CKESIM_BENCH_EXPERIMENTS_HPP

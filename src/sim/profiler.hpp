/**
 * @file
 * Cycle-cost profiler: sampled wall-time attribution of Gpu::run to
 * simulator components (DESIGN.md §14.4).
 *
 * A ProfScope writes its component into one thread-local byte and
 * puts the previous one back on exit: no clock read, and no check
 * whether anyone is profiling. While Gpu::run executes with a
 * Profiler attached (Gpu::setProfiler, bench --prof or CKESIM_PROF),
 * a Profiler::Armed guard arms a per-thread timer whose SIGPROF
 * handler adds a sample to that byte's component every
 * kProfSamplePeriod. A component's milliseconds are its share of the
 * samples times the armed window. The profiler only observes, so
 * fingerprints are the same whether it is on or off.
 */

#ifndef CKESIM_SIM_PROFILER_HPP
#define CKESIM_SIM_PROFILER_HPP

#include <array>
#include <atomic>
#include <chrono> // the armed window: profiling observes wall time; never feeds sim state
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <ostream>

namespace ckesim {

/** Components the strict stepping loop spends its time in. */
enum class ProfComp : std::uint8_t {
    Scheme,    ///< per-cycle scheme bookkeeping (UCP, DMIL, checkpoints)
    SmIssue,   ///< SM front end: dispatch, schedulers, issue, wakes
    Lsu,       ///< LSU queue service (excluding the L1D probe itself)
    L1d,       ///< L1D accesses and fill processing
    Noc,       ///< crossbar drains and reply injection
    L2,        ///< L2 partition ticks and DRAM-fill processing
    Dram,      ///< DRAM channel ticks and fill drains
    Integrity, ///< periodic invariant sweeps and watchdog polls
    Runloop,   ///< Gpu::run glue: tick dispatch, cadence checks
    kCount,    ///< outside every scope
};

constexpr int kNumProfComps = static_cast<int>(ProfComp::kCount);

/** Sampling period. At 100 µs the signals cost the stepping loop
 *  6-10%; at 1 ms, within noise (DESIGN.md §14.4). */
inline constexpr std::chrono::microseconds kProfSamplePeriod{1000};

namespace detail {
/** The component the calling thread is in. The SIGPROF handler reads
 *  it between any two instructions, so every store must happen: a
 *  plain thread_local lets the optimizer drop them. */
inline thread_local std::atomic<ProfComp> t_prof_comp{ProfComp::kCount};
} // namespace detail

/** RAII component scope: the thread's time is charged to @p comp
 *  until the scope ends or an inner scope takes over. */
class ProfScope
{
  public:
    explicit ProfScope(ProfComp comp)
        : outer_(detail::t_prof_comp.load(std::memory_order_relaxed))
    {
        detail::t_prof_comp.store(comp, std::memory_order_relaxed);
    }

    ~ProfScope()
    {
        detail::t_prof_comp.store(outer_, std::memory_order_relaxed);
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    ProfComp outer_;
};

/** Per-Gpu sample counts and armed window. */
class Profiler
{
  public:
    /** Start a fresh window: drop every sample and the armed time. */
    void
    enable()
    {
        for (std::atomic<std::uint64_t> &n : samples_)
            n.store(0, std::memory_order_relaxed);
        armed_ = {};
    }

    /** True when the CKESIM_PROF environment variable is set. */
    static bool
    envEnabled()
    {
        const char *v = std::getenv("CKESIM_PROF");
        return v != nullptr && v[0] != '\0' && v[0] != '0';
    }

    /** Share of the samples taken inside a component scope (0 before
     *  the first sample). */
    double attributedFraction() const;

    /**
     * Hot-spot breakdown table, heaviest component first. The last
     * column counts samples; its header keeps the name `scopes`,
     * which ckebench's parser matches.
     */
    void report(std::ostream &os) const;

    /**
     * Samples the calling thread into @p prof while alive (inert for
     * nullptr). The destructor disarms the timer on every exit path,
     * a thrown SimError included.
     */
    class Armed
    {
      public:
        explicit Armed(Profiler *prof);
        ~Armed();

        Armed(const Armed &) = delete;
        Armed &operator=(const Armed &) = delete;

      private:
        Profiler *prof_ = nullptr;
        timer_t timer_{};
        std::chrono::steady_clock::time_point start_{}; // SIMCHECK-ALLOW(determinism-hazard): profiling only
    };

  private:
    static void onSample(int);

    /** Indexed by ProfComp; the last slot counts samples taken
     *  outside every scope. */
    std::array<std::atomic<std::uint64_t>, kNumProfComps + 1> samples_{};
    std::chrono::steady_clock::duration armed_{}; // SIMCHECK-ALLOW(determinism-hazard): profiling only
};

} // namespace ckesim

#endif // CKESIM_SIM_PROFILER_HPP

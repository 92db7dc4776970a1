/**
 * @file
 * Cycle-cost profiler: wall-time attribution of the strict stepping
 * loop to simulator components (DESIGN.md §14).
 *
 * Design constraints:
 *  - Near-zero cost when disabled: every hook is a ProfScope whose
 *    constructor bails on a null/disabled profiler — one predictable
 *    branch, no clock read.
 *  - Cheap when enabled: scopes read the TSC directly (x86) and defer
 *    all conversion to report time, where a single TSC/steady-clock
 *    calibration pair turns tick counts into milliseconds.
 *  - Exclusive self-time: scopes nest (Lsu inside SmIssue, L1d inside
 *    Lsu); a child's total is subtracted from its parent, so the
 *    report's rows are disjoint and sum to attributable time.
 *  - Determinism: the profiler only *observes* — nothing it measures
 *    feeds back into simulation state, so fingerprints are unaffected
 *    whether it is on or off.
 *
 * One Profiler belongs to at most one Gpu (the sweep engine runs
 * concurrent Gpus; each gets its own instance — no shared state).
 * Enable externally via Gpu::setProfiler() (bench --prof) or the
 * CKESIM_PROF environment variable.
 */

#ifndef CKESIM_SIM_PROFILER_HPP
#define CKESIM_SIM_PROFILER_HPP

#include <array>
#include <chrono> // wall-clock use lives behind steady_clock lines below: profiling observes wall time; never feeds sim state
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <ostream>

namespace ckesim {

/** Components the strict stepping loop spends its time in. */
enum class ProfComp : int {
    Scheme,    ///< per-cycle scheme bookkeeping (UCP, DMIL, checkpoints)
    SmIssue,   ///< SM front end: dispatch, schedulers, issue, wakes
    Lsu,       ///< LSU queue service (excluding the L1D probe itself)
    L1d,       ///< L1D accesses and fill processing
    Noc,       ///< crossbar drains and reply injection
    L2,        ///< L2 partition ticks and DRAM-fill processing
    Dram,      ///< DRAM channel ticks and fill drains
    Integrity, ///< periodic invariant sweeps and watchdog polls
    Runloop,   ///< Gpu::run glue: tick dispatch, cadence checks
    kCount,
};

constexpr int kNumProfComps = static_cast<int>(ProfComp::kCount);

inline const char *
profCompName(ProfComp c)
{
    switch (c) {
      case ProfComp::Scheme:    return "scheme";
      case ProfComp::SmIssue:   return "sm_issue";
      case ProfComp::Lsu:       return "lsu";
      case ProfComp::L1d:       return "l1d";
      case ProfComp::Noc:       return "noc";
      case ProfComp::L2:        return "l2";
      case ProfComp::Dram:      return "dram";
      case ProfComp::Integrity: return "integrity";
      case ProfComp::Runloop:   return "runloop";
      case ProfComp::kCount:    break;
    }
    return "?";
}

/** Raw timestamp: TSC where available, steady-clock ns otherwise. */
inline std::uint64_t
profTimestamp()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_ia32_rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() // SIMCHECK-ALLOW(determinism-hazard): profiling only
                .time_since_epoch())
            .count());
#endif
}

class ProfScope;

/** Per-Gpu wall-time accumulator. */
class Profiler
{
  public:
    /** Start the wall-clock window report() will attribute against. */
    void
    enable()
    {
        enabled_ = true;
        for (Comp &c : comps_)
            c = Comp{};
        tsc0_ = profTimestamp();
        wall0_ = std::chrono::steady_clock::now(); // SIMCHECK-ALLOW(determinism-hazard): profiling only
    }

    bool enabled() const { return enabled_; }

    /** True when the CKESIM_PROF environment variable is set. */
    static bool
    envEnabled()
    {
        const char *v = std::getenv("CKESIM_PROF");
        return v != nullptr && v[0] != '\0' && v[0] != '0';
    }

    /**
     * Fraction of the enable()->now wall window attributed to a
     * component scope (0 when disabled or the window is empty).
     */
    double
    attributedFraction() const
    {
        const Calib cal = calibrate();
        if (cal.wall_ms <= 0.0 || cal.ticks_per_ms <= 0.0)
            return 0.0;
        double ms = 0.0;
        for (const Comp &c : comps_)
            ms += static_cast<double>(c.ticks) / cal.ticks_per_ms;
        return ms / cal.wall_ms;
    }

    /** Hot-spot breakdown table, heaviest component first. */
    void
    report(std::ostream &os) const
    {
        const Calib cal = calibrate();
        std::array<int, kNumProfComps> order{};
        for (int i = 0; i < kNumProfComps; ++i)
            order[static_cast<std::size_t>(i)] = i;
        for (int i = 1; i < kNumProfComps; ++i) // insertion sort
            for (int j = i;
                 j > 0 &&
                 comps_[static_cast<std::size_t>(
                            order[static_cast<std::size_t>(j)])].ticks >
                     comps_[static_cast<std::size_t>(
                                order[static_cast<std::size_t>(j - 1)])]
                         .ticks;
                 --j)
                std::swap(order[static_cast<std::size_t>(j)],
                          order[static_cast<std::size_t>(j - 1)]);

        os << "profile: wall " << std::fixed << std::setprecision(1)
           << cal.wall_ms << " ms, attributed "
           << std::setprecision(1) << attributedFraction() * 100.0
           << "%\n";
        os << "  " << std::left << std::setw(10) << "component"
           << std::right << std::setw(10) << "ms" << std::setw(8)
           << "%" << std::setw(14) << "scopes" << "\n";
        for (int idx : order) {
            const Comp &c = comps_[static_cast<std::size_t>(idx)];
            if (c.calls == 0)
                continue;
            const double ms =
                cal.ticks_per_ms > 0.0
                    ? static_cast<double>(c.ticks) / cal.ticks_per_ms
                    : 0.0;
            const double pct =
                cal.wall_ms > 0.0 ? ms / cal.wall_ms * 100.0 : 0.0;
            os << "  " << std::left << std::setw(10)
               << profCompName(static_cast<ProfComp>(idx))
               << std::right << std::setw(10) << std::setprecision(1)
               << ms << std::setw(7) << std::setprecision(1) << pct
               << "%" << std::setw(14) << c.calls << "\n";
        }
        os.unsetf(std::ios::fixed);
    }

  private:
    friend class ProfScope;

    struct Comp
    {
        std::uint64_t ticks = 0; ///< exclusive self-time (TSC units)
        std::uint64_t calls = 0;
    };
    struct Calib
    {
        double wall_ms = 0.0;
        double ticks_per_ms = 0.0;
    };

    /** One TSC/steady-clock pair converts ticks to milliseconds. */
    Calib
    calibrate() const
    {
        Calib cal;
        if (!enabled_)
            return cal;
        const std::uint64_t tsc1 = profTimestamp();
        const auto wall1 = std::chrono::steady_clock::now(); // SIMCHECK-ALLOW(determinism-hazard): profiling only
        cal.wall_ms =
            std::chrono::duration<double, std::milli>(wall1 - wall0_)
                .count();
        if (cal.wall_ms > 0.0)
            cal.ticks_per_ms =
                static_cast<double>(tsc1 - tsc0_) / cal.wall_ms;
        return cal;
    }

    bool enabled_ = false;
    std::array<Comp, kNumProfComps> comps_{};
    ProfScope *cur_ = nullptr; ///< innermost live scope (nesting)
    std::uint64_t tsc0_ = 0;
    std::chrono::steady_clock::time_point wall0_{}; // SIMCHECK-ALLOW(determinism-hazard): profiling only
};

/**
 * RAII timing scope. Construct with the owning profiler (null or
 * disabled = inert) and the component to charge; nesting is tracked
 * so parents are charged exclusive time only.
 */
class ProfScope
{
  public:
    ProfScope(Profiler *p, ProfComp comp)
        : prof_(p != nullptr && p->enabled_ ? p : nullptr)
    {
        if (prof_ == nullptr)
            return;
        comp_ = comp;
        parent_ = prof_->cur_;
        prof_->cur_ = this;
        start_ = profTimestamp();
    }

    ~ProfScope()
    {
        if (prof_ == nullptr)
            return;
        const std::uint64_t total = profTimestamp() - start_;
        Profiler::Comp &c =
            prof_->comps_[static_cast<std::size_t>(comp_)];
        c.ticks += total - child_;
        ++c.calls;
        if (parent_ != nullptr)
            parent_->child_ += total;
        prof_->cur_ = parent_;
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    Profiler *prof_;
    ProfScope *parent_ = nullptr;
    ProfComp comp_ = ProfComp::Scheme;
    std::uint64_t start_ = 0;
    std::uint64_t child_ = 0; ///< total TSC ticks spent in children
};

} // namespace ckesim

#endif // CKESIM_SIM_PROFILER_HPP

/**
 * @file
 * The POSIX half of the cycle-cost profiler (sim/profiler.hpp): the
 * SIGPROF handler, the per-thread sampling timer and the report.
 */

#include "sim/profiler.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <iomanip>
#include <numeric>

namespace ckesim {

namespace {

/** The profiler the calling thread samples into (null: none). */
thread_local std::atomic<Profiler *> t_armed{nullptr};

static_assert(std::atomic<ProfComp>::is_always_lock_free &&
                  std::atomic<std::uint64_t>::is_always_lock_free &&
                  std::atomic<Profiler *>::is_always_lock_free,
              "a signal handler may touch only lock-free atomics");

/** Report names, in ProfComp order. */
constexpr std::array<const char *, kNumProfComps> kCompNames = {
    "scheme", "sm_issue", "lsu",       "l1d",    "noc",
    "l2",     "dram",     "integrity", "runloop"};

} // namespace

void
Profiler::onSample(int)
{
    Profiler *prof = t_armed.load(std::memory_order_relaxed);
    if (prof == nullptr)
        return;
    const auto comp = static_cast<std::size_t>(
        detail::t_prof_comp.load(std::memory_order_relaxed));
    prof->samples_[comp].fetch_add(1, std::memory_order_relaxed);
}

Profiler::Armed::Armed(Profiler *prof)
{
    if (prof == nullptr)
        return;
    static const bool handler_installed = [] {
        struct sigaction sa = {};
        sa.sa_handler = &Profiler::onSample;
        sa.sa_flags = SA_RESTART;
        sigemptyset(&sa.sa_mask);
        return sigaction(SIGPROF, &sa, nullptr) == 0;
    }();
    // A monotonic timer aimed at this thread, not the thread's
    // CPU-time clock: that one fires only on scheduler ticks, every
    // few ms whatever the period (DESIGN.md §14.4).
    sigevent sev = {};
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev._sigev_un._tid = gettid(); // glibc's name for sigev_notify_thread_id
    if (!handler_installed ||
        timer_create(CLOCK_MONOTONIC, &sev, &timer_) != 0) // SIMCHECK-ALLOW(determinism-hazard): profiling only
        return; // no timer: this run goes unsampled
    prof_ = prof;
    t_armed.store(prof, std::memory_order_relaxed);
    start_ = std::chrono::steady_clock::now(); // SIMCHECK-ALLOW(determinism-hazard): profiling only
    static_assert(kProfSamplePeriod < std::chrono::seconds{1});
    itimerspec every = {};
    every.it_interval.tv_nsec =
        std::chrono::nanoseconds(kProfSamplePeriod).count();
    every.it_value = every.it_interval;
    timer_settime(timer_, 0, &every, nullptr);
}

Profiler::Armed::~Armed()
{
    if (prof_ == nullptr)
        return;
    // Unhook first: a signal still in flight then counts nowhere.
    t_armed.store(nullptr, std::memory_order_relaxed);
    timer_delete(timer_);
    prof_->armed_ += std::chrono::steady_clock::now() - start_; // SIMCHECK-ALLOW(determinism-hazard): profiling only
}

double
Profiler::attributedFraction() const
{
    std::uint64_t total = 0;
    for (const std::atomic<std::uint64_t> &n : samples_)
        total += n.load(std::memory_order_relaxed);
    const std::uint64_t outside =
        samples_[kNumProfComps].load(std::memory_order_relaxed);
    return total > 0 ? static_cast<double>(total - outside) /
                           static_cast<double>(total)
                     : 0.0;
}

void
Profiler::report(std::ostream &os) const
{
    std::array<std::uint64_t, kNumProfComps + 1> n{};
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n.size(); ++i)
        total += n[i] = samples_[i].load(std::memory_order_relaxed);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(armed_).count();
    std::array<std::size_t, kNumProfComps> order{};
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&n](std::size_t a, std::size_t b) {
                         return n[a] > n[b];
                     });

    os << "profile: wall " << std::fixed << std::setprecision(1)
       << wall_ms << " ms, attributed " << attributedFraction() * 100.0
       << "%\n";
    os << "  " << std::left << std::setw(10) << "component"
       << std::right << std::setw(10) << "ms" << std::setw(8) << "%"
       << std::setw(14) << "scopes" << "\n";
    for (std::size_t idx : order) {
        if (n[idx] == 0)
            continue;
        const double share =
            static_cast<double>(n[idx]) / static_cast<double>(total);
        os << "  " << std::left << std::setw(10) << kCompNames[idx]
           << std::right << std::setw(10) << share * wall_ms << std::setw(7)
           << share * 100.0 << "%" << std::setw(14) << n[idx] << "\n";
    }
    os.unsetf(std::ios::fixed);
}

} // namespace ckesim

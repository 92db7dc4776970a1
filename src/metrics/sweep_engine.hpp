/**
 * @file
 * SweepEngine: executes SimJobs across a work-stealing thread pool
 * with a content-hash-keyed memo cache, so isolated baselines,
 * scalability points and Req/Minst profiles are simulated once and
 * shared by every scheme in a sweep. Results are returned in
 * submission order and are bit-identical for any worker count: each
 * simulation is single-threaded and deterministic, and cross-job
 * coupling goes only through memoized (deterministic) results. Within
 * a sweep, dynamic Warped-Slicer jobs of one prefix class simulate
 * their profiling window once and restore it (DESIGN.md §9).
 */

#ifndef CKESIM_METRICS_SWEEP_ENGINE_HPP
#define CKESIM_METRICS_SWEEP_ENGINE_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/warped_slicer.hpp"
#include "metrics/sim_job.hpp"

namespace ckesim {

class ResultJournal;

/** Memo-cache and execution accounting for one engine. */
struct SweepStats
{
    std::uint64_t sims_executed = 0; ///< Gpu simulations actually run
    std::uint64_t memo_hits = 0;     ///< jobs served from the cache
    std::uint64_t isolated_runs = 0; ///< executed isolated sims
    std::uint64_t isolated_hits = 0; ///< isolated sims reused
    std::uint64_t journal_hits = 0;  ///< results served from a journal
    /** Warped-Slicer profiling windows simulated and snapshotted for
     *  the other members of their prefix class, and members that
     *  restored one instead of simulating their own. */
    std::uint64_t prefix_runs = 0;
    std::uint64_t prefix_restores = 0;

    double
    hitRate() const
    {
        const std::uint64_t total = memo_hits + sims_executed;
        return total == 0
                   ? 0.0
                   : static_cast<double>(memo_hits) /
                         static_cast<double>(total);
    }
};

/**
 * Minimal work-stealing pool: each worker owns a deque (LIFO for the
 * owner, FIFO for thieves); run() distributes a batch round-robin and
 * the calling thread participates by stealing until the batch drains,
 * so nested run() calls from inside a task cannot deadlock.
 */
class WorkStealingPool
{
  public:
    /** @p workers extra threads; 0 = run everything on the caller. */
    explicit WorkStealingPool(int workers);
    ~WorkStealingPool();

    WorkStealingPool(const WorkStealingPool &) = delete;
    WorkStealingPool &operator=(const WorkStealingPool &) = delete;

    int workers() const { return static_cast<int>(threads_.size()); }

    /** Execute @p tasks, blocking until all complete. Tasks must not
     *  throw (wrap exceptions into captured slots). */
    void run(std::vector<std::function<void()>> tasks);

  private:
    struct Batch
    {
        std::atomic<std::size_t> remaining{0};
        std::mutex m;
        std::condition_variable done;
    };
    struct Task
    {
        std::function<void()> fn;
        Batch *batch = nullptr;
    };

    void workerLoop(std::size_t self);
    bool trySteal(std::size_t first, Task &out);
    static void finish(Task &task);

    std::mutex mu_; ///< guards all queues (batches are coarse)
    std::condition_variable work_cv_;
    std::vector<std::deque<Task>> queues_; ///< one per worker
    std::vector<std::thread> threads_;
    bool stop_ = false;
};

/**
 * Runs SimJobs with memoization and parallelism. The engine is
 * config-agnostic: every job carries its own GpuConfig, so one engine
 * serves a whole bench binary (including multi-config sensitivity
 * sweeps) with a single shared cache.
 */
class SweepEngine
{
  public:
    /** @p jobs worker count; <=0 = hardware concurrency. */
    explicit SweepEngine(int jobs = 0);

    /** Worker count (including the participating caller). */
    int jobs() const { return jobs_; }

    /**
     * Run a batch; results come back in submission order. Dynamic
     * Warped-Slicer jobs of one prefix class (same config, kernels and
     * prefixClass(spec); no series, faults or oracle curves) run in
     * chunks of at most ceil(eligible / jobs()) members: each chunk
     * simulates one window, snapshots it at `profile_end`, and its
     * other members restore it and simulate only their measurement.
     */
    std::vector<SimResult> sweep(const std::vector<SimJob> &jobs);

    /** Run (or fetch) one job. */
    SimResult run(const SimJob &job);

    /** Memoized isolated baseline of one kernel. */
    std::shared_ptr<const IsolatedResult>
    isolated(const GpuConfig &cfg, Cycle cycles,
             const KernelProfile &prof, int tb_limit = 0);

    /** Memoized concurrent run of a named scheme. */
    std::shared_ptr<const ConcurrentResult>
    concurrent(const GpuConfig &cfg, Cycle cycles,
               const Workload &workload, NamedScheme named);

    /** Memoized concurrent run of an explicit spec. */
    std::shared_ptr<const ConcurrentResult>
    concurrent(const GpuConfig &cfg, Cycle cycles,
               const Workload &workload, const SchemeSpec &spec);

    /** Per-SM IPC-vs-TB-count curve, points fanned out in parallel. */
    ScalabilityCurve scalability(const GpuConfig &cfg, Cycle cycles,
                                 const KernelProfile &prof);

    /** Build the SchemeSpec for a named scheme (SMK quota schemes
     *  pull memoized isolated baselines). */
    SchemeSpec makeNamedScheme(const GpuConfig &cfg, Cycle cycles,
                               NamedScheme named,
                               const Workload &workload);

    SweepStats stats() const;
    void clearCache();

    /** Attach a write-ahead results journal (nullptr detaches): run()
     *  serves journaled results without simulating and durably records
     *  every fresh result before returning it. */
    void setJournal(ResultJournal *journal) { journal_ = journal; }
    ResultJournal *journal() const { return journal_; }

    /**
     * Install a hook copied into the Gpu of every subsequently started
     * job (see Gpu::setPollHook). Set before submitting jobs; not
     * synchronized against in-flight ones.
     */
    void setPollHook(std::function<void()> hook)
    {
        poll_hook_ = std::move(hook);
    }

  private:
    /** Memo lookup: a hit returns the entry's future (and counts it);
     *  a miss registers @p prom's future, which the caller settles. */
    std::optional<std::shared_future<SimResult>>
    claim(const SimJob &job, std::uint64_t key,
          std::promise<SimResult> &prom);
    /** Fulfil a claimed entry with @p fn's result; a failure leaves
     *  the cache (so a resubmission recomputes) and rethrows. */
    template <class Fn>
    SimResult settle(std::uint64_t key, std::promise<SimResult> &prom,
                     Fn &&fn);
    /** @p job's prefix-class key, with its resolved spec in @p spec,
     *  or nothing when it cannot share a profiling window. */
    std::optional<std::uint64_t> prefixKey(const SimJob &job,
                                           SchemeSpec &spec);
    /** One pool task: the members of one prefix-class chunk. */
    void runChunk(const std::vector<SimJob> &jobs,
                  const std::vector<SchemeSpec> &specs,
                  const std::vector<std::size_t> &chunk,
                  std::vector<SimResult> &results,
                  std::vector<std::exception_ptr> &errors);
    SimResult compute(const SimJob &job, std::uint64_t key);
    /** Count, simulate and journal a job the memo and journal missed;
     *  @p at_window is its machine at `profile_end` when it shares a
     *  window, else null (the job runs straight through). */
    SimResult simulate(const SimJob &job, std::uint64_t key,
                       Gpu *at_window);
    std::shared_ptr<const IsolatedResult>
    computeIsolated(const SimJob &job);
    std::shared_ptr<const ConcurrentResult>
    computeConcurrent(const SimJob &job, Gpu *at_window);

    int jobs_;
    WorkStealingPool pool_;

    std::mutex cache_mu_;
    std::unordered_map<std::uint64_t, std::shared_future<SimResult>>
        cache_;

    std::atomic<std::uint64_t> sims_executed_{0};
    std::atomic<std::uint64_t> memo_hits_{0};
    std::atomic<std::uint64_t> isolated_runs_{0};
    std::atomic<std::uint64_t> isolated_hits_{0};
    std::atomic<std::uint64_t> journal_hits_{0};
    std::atomic<std::uint64_t> prefix_runs_{0};
    std::atomic<std::uint64_t> prefix_restores_{0};

    ResultJournal *journal_ = nullptr;
    std::function<void()> poll_hook_;
};

} // namespace ckesim

#endif // CKESIM_METRICS_SWEEP_ENGINE_HPP

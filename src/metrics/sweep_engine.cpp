#include "metrics/sweep_engine.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "metrics/journal.hpp"
#include "metrics/perf_metrics.hpp"
#include "sim/check.hpp"

namespace ckesim {

// ---- WorkStealingPool --------------------------------------------------

WorkStealingPool::WorkStealingPool(int workers)
{
    workers = std::max(workers, 0);
    queues_.resize(static_cast<std::size_t>(workers));
    threads_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i)
        threads_.emplace_back(&WorkStealingPool::workerLoop, this,
                              static_cast<std::size_t>(i));
}

WorkStealingPool::~WorkStealingPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
WorkStealingPool::finish(Task &task)
{
    // The batch is a local of run(), which returns as soon as it reads
    // remaining == 0 under batch->m. Decrementing under that mutex
    // keeps run() from returning while this thread still touches it.
    std::lock_guard<std::mutex> lk(task.batch->m);
    if (task.batch->remaining.fetch_sub(1) == 1)
        task.batch->done.notify_all();
}

bool
WorkStealingPool::trySteal(std::size_t self, Task &out)
{
    // Caller holds mu_. Thieves take the oldest task (FIFO end).
    for (std::size_t j = 0; j < queues_.size(); ++j) {
        if (j == self || queues_[j].empty())
            continue;
        out = std::move(queues_[j].front());
        queues_[j].pop_front();
        return true;
    }
    return false;
}

void
WorkStealingPool::workerLoop(std::size_t self)
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        if (stop_)
            return;
        Task task;
        if (!queues_[self].empty()) {
            // Owner pops LIFO: freshly pushed work is cache-warm.
            task = std::move(queues_[self].back());
            queues_[self].pop_back();
        } else if (!trySteal(self, task)) {
            work_cv_.wait(lk);
            continue;
        }
        lk.unlock();
        task.fn();
        finish(task);
        lk.lock();
    }
}

void
WorkStealingPool::run(std::vector<std::function<void()>> tasks)
{
    if (tasks.empty())
        return;
    if (threads_.empty()) {
        for (auto &t : tasks)
            t();
        return;
    }

    Batch batch;
    batch.remaining.store(tasks.size());
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (std::size_t i = 0; i < tasks.size(); ++i)
            queues_[i % queues_.size()].push_back(
                Task{std::move(tasks[i]), &batch});
    }
    work_cv_.notify_all();

    // The caller participates: steal any runnable task (not just this
    // batch's) until the batch drains, so nested run() calls from
    // inside a task always make global progress.
    for (;;) {
        Task task;
        bool got = false;
        {
            std::lock_guard<std::mutex> lk(mu_);
            got = trySteal(queues_.size(), task);
        }
        if (got) {
            task.fn();
            finish(task);
            continue;
        }
        std::unique_lock<std::mutex> lk(batch.m);
        if (batch.remaining.load() == 0)
            return;
        // Timed wait: new stealable tasks can appear (nested batches)
        // without a signal on this batch's cv.
        batch.done.wait_for(lk, std::chrono::milliseconds(10));
        if (batch.remaining.load() == 0)
            return;
    }
}

// ---- SweepEngine -------------------------------------------------------

namespace {

int
resolveJobCount(int jobs)
{
    if (jobs > 0)
        return jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

} // namespace

std::uint64_t
retryBackoffMs(const RetryPolicy &policy, std::uint64_t key,
               int attempt)
{
    if (policy.backoff_ms == 0)
        return 0;
    const int shift = std::min(attempt, 32);
    const std::uint64_t base = policy.backoff_ms
                               << static_cast<unsigned>(shift);
    const std::uint64_t span = base * policy.jitter_pct / 100;
    if (span == 0)
        return base;
    // splitmix64 over (key, attempt): high-quality, seedable, and —
    // unlike wall-clock or RNG jitter — bit-reproducible per job.
    std::uint64_t z = key ^
                      (static_cast<std::uint64_t>(attempt) + 1) *
                          0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return base + z % (span + 1);
}

SweepEngine::SweepEngine(int jobs)
    : jobs_(resolveJobCount(jobs)), pool_(jobs_ - 1)
{
    // Touch the lazily-built profile suite before any worker can race
    // on its magic-static initialization (the init is thread-safe per
    // C++11, but warming it keeps first-job latencies flat).
    benchmarkSuite();
}

SweepStats
SweepEngine::stats() const
{
    SweepStats s;
    s.jobs_submitted = jobs_submitted_.load();
    s.sims_executed = sims_executed_.load();
    s.memo_hits = memo_hits_.load();
    s.isolated_runs = isolated_runs_.load();
    s.isolated_hits = isolated_hits_.load();
    return s;
}

void
SweepEngine::clearCache()
{
    std::lock_guard<std::mutex> lk(cache_mu_);
    cache_.clear();
}

SimResult
SweepEngine::run(const SimJob &job)
{
    jobs_submitted_.fetch_add(1);
    const std::uint64_t key = job.key();

    std::promise<SimResult> prom;
    {
        std::unique_lock<std::mutex> lk(cache_mu_);
        auto it = cache_.find(key);
        if (it != cache_.end()) {
            std::shared_future<SimResult> fut = it->second;
            lk.unlock();
            memo_hits_.fetch_add(1);
            if (job.kind == JobKind::Isolated)
                isolated_hits_.fetch_add(1);
            return fut.get();
        }
        cache_.emplace(key, prom.get_future().share());
    }

    // This thread won the race: compute inline (never enqueue — a
    // blocked waiter must always be waiting on an actively-running
    // computation, so memoization can't deadlock the pool).
    try {
        SimResult result = computeWithResilience(job);
        prom.set_value(result);
        return result;
    } catch (...) {
        {
            // A failure must not poison the cache: resubmitting the
            // identical job (after a transient timeout, a cancel, or
            // a cleared fault) gets a fresh attempt instead of the
            // memoized exception. In-flight waiters still receive the
            // exception through their shared_future copies.
            std::lock_guard<std::mutex> lk(cache_mu_);
            cache_.erase(key);
        }
        prom.set_exception(std::current_exception());
        throw;
    }
}

std::vector<SimResult>
SweepEngine::sweep(const std::vector<SimJob> &jobs)
{
    std::vector<SimResult> results(jobs.size());
    std::vector<std::exception_ptr> errors(jobs.size());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        tasks.push_back([this, &jobs, &results, &errors, i] {
            try {
                results[i] = run(jobs[i]);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
    }
    pool_.run(std::move(tasks));

    // Deterministic error reporting: surface the first failing job in
    // submission order, exactly as a serial loop would.
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    return results;
}

std::shared_ptr<const IsolatedResult>
SweepEngine::isolated(const GpuConfig &cfg, Cycle cycles,
                      const KernelProfile &prof, int tb_limit)
{
    return run(SimJob::isolated(cfg, cycles, prof, tb_limit))
        .isolated;
}

std::shared_ptr<const ConcurrentResult>
SweepEngine::concurrent(const GpuConfig &cfg, Cycle cycles,
                        const Workload &workload, NamedScheme named)
{
    return run(SimJob::concurrent(cfg, cycles, workload, named))
        .concurrent;
}

std::shared_ptr<const ConcurrentResult>
SweepEngine::concurrent(const GpuConfig &cfg, Cycle cycles,
                        const Workload &workload,
                        const SchemeSpec &spec)
{
    return run(SimJob::concurrent(cfg, cycles, workload, spec))
        .concurrent;
}

ScalabilityCurve
SweepEngine::scalability(const GpuConfig &cfg, Cycle cycles,
                         const KernelProfile &prof)
{
    const int max_tbs = prof.maxTbsPerSm(cfg.sm);
    std::vector<SimJob> jobs;
    jobs.reserve(static_cast<std::size_t>(max_tbs));
    for (int tb = 1; tb <= max_tbs; ++tb)
        jobs.push_back(SimJob::isolated(cfg, cycles, prof, tb));
    const std::vector<SimResult> points = sweep(jobs);

    ScalabilityCurve curve;
    for (int tb = 1; tb <= max_tbs; ++tb)
        curve.addPoint(
            tb,
            points[static_cast<std::size_t>(tb - 1)]
                .isolated->ipc_per_sm);
    return curve;
}

SchemeSpec
SweepEngine::makeNamedScheme(const GpuConfig &cfg, Cycle cycles,
                             NamedScheme named,
                             const Workload &workload)
{
    SchemeSpec spec;
    switch (named) {
      case NamedScheme::Spatial:
        spec.partition = PartitionScheme::Spatial;
        break;
      case NamedScheme::Leftover:
        spec.partition = PartitionScheme::Leftover;
        break;
      case NamedScheme::WS:
        spec.partition = PartitionScheme::WarpedSlicer;
        break;
      case NamedScheme::WS_RBMI:
        spec.partition = PartitionScheme::WarpedSlicer;
        spec.bmi = BmiMode::RBMI;
        break;
      case NamedScheme::WS_QBMI:
        spec.partition = PartitionScheme::WarpedSlicer;
        spec.bmi = BmiMode::QBMI;
        break;
      case NamedScheme::WS_DMIL:
        spec.partition = PartitionScheme::WarpedSlicer;
        spec.mil = MilMode::Dynamic;
        break;
      case NamedScheme::WS_QBMI_DMIL:
        spec.partition = PartitionScheme::WarpedSlicer;
        spec.bmi = BmiMode::QBMI;
        spec.mil = MilMode::Dynamic;
        break;
      case NamedScheme::WS_UCP:
        spec.partition = PartitionScheme::WarpedSlicer;
        spec.ucp = true;
        break;
      case NamedScheme::SMK_PW:
        spec.partition = PartitionScheme::SmkDrf;
        spec.smk_warp_quota = true;
        break;
      case NamedScheme::SMK_P_QBMI:
        spec.partition = PartitionScheme::SmkDrf;
        spec.bmi = BmiMode::QBMI;
        break;
      case NamedScheme::SMK_P_DMIL:
        spec.partition = PartitionScheme::SmkDrf;
        spec.mil = MilMode::Dynamic;
        break;
    }
    if (spec.smk_warp_quota) {
        for (const KernelProfile *k : workload.kernels)
            spec.isolated_ipc_per_sm.push_back(
                isolated(cfg, cycles, *k)->ipc_per_sm);
    }
    return spec;
}

// ---- resilience layer --------------------------------------------------

/**
 * RAII registration of one job's RunControl with the engine, so
 * cancelAll() can reach every in-flight simulation. Budgets are armed
 * at construction (the wall deadline starts when the job does).
 */
class SweepEngine::ActiveControl
{
  public:
    explicit ActiveControl(SweepEngine &eng) : eng_(eng)
    {
        rc_.setCycleBudget(eng.budget_.cycle_budget);
        rc_.setWallBudgetMs(eng.budget_.wall_budget_ms);
        if (eng.poll_hook_)
            rc_.setPollHook(eng.poll_hook_);
        std::lock_guard<std::mutex> lk(eng.rc_mu_);
        if (eng.cancel_all_)
            rc_.requestCancel();
        eng.active_rcs_.push_back(&rc_);
    }

    ~ActiveControl()
    {
        std::lock_guard<std::mutex> lk(eng_.rc_mu_);
        auto &v = eng_.active_rcs_;
        v.erase(std::remove(v.begin(), v.end(), &rc_), v.end());
    }

    ActiveControl(const ActiveControl &) = delete;
    ActiveControl &operator=(const ActiveControl &) = delete;

    RunControl *get() { return &rc_; }

  private:
    SweepEngine &eng_;
    RunControl rc_;
};

void
SweepEngine::cancelAll()
{
    std::lock_guard<std::mutex> lk(rc_mu_);
    cancel_all_ = true;
    for (RunControl *rc : active_rcs_)
        rc->requestCancel();
}

void
SweepEngine::clearCancel()
{
    std::lock_guard<std::mutex> lk(rc_mu_);
    cancel_all_ = false;
}

ResilienceReport
SweepEngine::resilience() const
{
    ResilienceReport r;
    r.completed = completed_.load();
    r.retried = retried_.load();
    r.timed_out = timed_out_.load();
    r.cancelled = cancelled_jobs_.load();
    r.abandoned = abandoned_.load();
    r.journal_hits = journal_hits_.load();
    return r;
}

SimResult
SweepEngine::computeWithResilience(const SimJob &job)
{
    const std::uint64_t key = job.key();
    if (journal_) {
        SimResult recovered;
        if (journal_->find(key, recovered)) {
            journal_hits_.fetch_add(1);
            completed_.fetch_add(1);
            return recovered;
        }
    }

    // Retrying a fully deterministic failure is pointless; what can
    // legitimately differ between attempts is the wall-clock budget
    // (host load) and fault-injection jobs, whose whole purpose is to
    // die — the issue-level contract is "bounded attempts, then give
    // up with the original error".
    const bool fault_job = !job.use_named && !job.spec.faults.empty();
    for (int attempt = 0;; ++attempt) {
        try {
            SimResult result = compute(job);
            if (journal_)
                journal_->append(key, result);
            completed_.fetch_add(1);
            return result;
        } catch (const SimError &e) {
            const bool timeout = e.kind() == "Timeout";
            if (timeout)
                timed_out_.fetch_add(1);
            if (e.kind() == "Cancelled") {
                cancelled_jobs_.fetch_add(1);
                abandoned_.fetch_add(1);
                throw; // cancellation is a command, never retried
            }
            if (!(timeout || fault_job) ||
                attempt >= retry_.max_retries) {
                abandoned_.fetch_add(1);
                throw;
            }
            retried_.fetch_add(1);
            const std::uint64_t backoff =
                retryBackoffMs(retry_, key, attempt);
            if (backoff > 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(backoff));
        }
    }
}

SimResult
SweepEngine::compute(const SimJob &job)
{
    sims_executed_.fetch_add(1);
    ActiveControl control(*this);
    SimResult result;
    if (job.kind == JobKind::Isolated) {
        isolated_runs_.fetch_add(1);
        result.isolated = computeIsolated(job, control.get());
    } else {
        result.concurrent = computeConcurrent(job, control.get());
    }
    return result;
}

namespace {

MemSideStats
memSideStats(Gpu &gpu)
{
    MemSideStats mem;
    mem.l2_miss_rate = gpu.memsys().l2MissRate();
    const int channels = gpu.config().dram.num_channels;
    double row_hit = 0.0;
    for (int c = 0; c < channels; ++c)
        row_hit += gpu.memsys().channel(c).rowHitRate();
    mem.dram_row_hit_rate = channels > 0 ? row_hit / channels : 0.0;
    return mem;
}

/** Allocate and attach per-kernel samplers requested by @p job. */
void
attachRequestedSeries(const SimJob &job, Gpu &gpu,
                      std::vector<TimeSeries> &issue,
                      std::vector<TimeSeries> &l1d)
{
    if (!job.series.issue && !job.series.l1d)
        return;
    const std::size_t n =
        static_cast<std::size_t>(job.workload.numKernels());
    if (job.series.issue)
        issue.assign(n, TimeSeries(job.series.interval));
    if (job.series.l1d)
        l1d.assign(n, TimeSeries(job.series.interval));
    for (std::size_t k = 0; k < n; ++k)
        gpu.attachSeries(static_cast<KernelId>(k),
                         job.series.issue ? &issue[k] : nullptr,
                         job.series.l1d ? &l1d[k] : nullptr);
}

} // namespace

std::shared_ptr<const IsolatedResult>
SweepEngine::computeIsolated(const SimJob &job, RunControl *rc)
{
    const KernelProfile &prof = *job.workload.kernels.at(0);
    Workload wl;
    wl.kernels = {&prof};
    const SchemeSpec spec = makeScheme(PartitionScheme::Leftover,
                                       BmiMode::None, MilMode::None);
    Gpu gpu(job.cfg, wl, spec);
    gpu.setRunControl(rc);
    const int quota = job.tb_limit > 0
                          ? job.tb_limit
                          : prof.maxTbsPerSm(job.cfg.sm);
    for (int s = 0; s < gpu.numSms(); ++s)
        gpu.sm(s).setTbQuota(KernelId{0}, quota);

    auto res = std::make_shared<IsolatedResult>();
    attachRequestedSeries(job, gpu, res->issue_series,
                          res->l1d_series);
    gpu.run(job.cycles);

    res->ipc = gpu.ipc(KernelId{0});
    res->ipc_per_sm = res->ipc / job.cfg.num_sms;
    res->stats = gpu.kernelStatsTotal(KernelId{0});
    res->sm_stats = gpu.smStatsTotal();
    res->max_tbs = quota;
    res->mem = memSideStats(gpu);
    gpu.audit();
    return res;
}

std::shared_ptr<const ConcurrentResult>
SweepEngine::computeConcurrent(const SimJob &job, RunControl *rc)
{
    const SchemeSpec spec =
        job.use_named ? makeNamedScheme(job.cfg, job.cycles,
                                        job.named, job.workload)
                      : job.spec;

    // Dynamic Warped-Slicer spends a profiling window first; extend
    // the run so the measurement phase always covers job.cycles.
    Cycle total = job.cycles;
    if (spec.partition == PartitionScheme::WarpedSlicer &&
        spec.oracle_curves.empty())
        total += spec.ws_profile_window;

    Gpu gpu(job.cfg, job.workload, spec);
    gpu.setRunControl(rc);
    auto res = std::make_shared<ConcurrentResult>();
    attachRequestedSeries(job, gpu, res->issue_series,
                          res->l1d_series);
    gpu.run(total);

    res->workload_name = job.workload.name();
    res->theoretical_ws = gpu.theoreticalWs();
    res->partition = gpu.chosenPartition();
    res->sm_stats = gpu.smStatsTotal();
    for (int k = 0; k < job.workload.numKernels(); ++k) {
        const double shared_ipc = gpu.ipc(KernelId{k});
        const double iso_ipc =
            isolated(job.cfg, job.cycles,
                     *job.workload.kernels[static_cast<std::size_t>(
                         k)])
                ->ipc;
        res->ipc.push_back(shared_ipc);
        res->norm_ipc.push_back(
            iso_ipc > 0 ? shared_ipc / iso_ipc : 0.0);
        res->stats.push_back(gpu.kernelStatsTotal(KernelId{k}));
    }
    res->weighted_speedup = weightedSpeedup(res->norm_ipc);
    res->antt_value = antt(res->norm_ipc);
    res->fairness = fairnessIndex(res->norm_ipc);
    res->mem = memSideStats(gpu);

    // Conservation audit: prove every generated request retired.
    // Fault-injection runs deliberately corrupt the pipeline; their
    // leaks are the experiment, not a simulator bug.
    if (spec.faults.empty())
        gpu.audit();
    return res;
}

} // namespace ckesim

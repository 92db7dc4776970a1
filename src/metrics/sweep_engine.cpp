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
    s.sims_executed = sims_executed_.load();
    s.memo_hits = memo_hits_.load();
    s.isolated_runs = isolated_runs_.load();
    s.isolated_hits = isolated_hits_.load();
    s.journal_hits = journal_hits_.load();
    s.prefix_runs = prefix_runs_.load();
    s.prefix_restores = prefix_restores_.load();
    return s;
}

void
SweepEngine::clearCache()
{
    std::lock_guard<std::mutex> lk(cache_mu_);
    cache_.clear();
}

std::optional<std::shared_future<SimResult>>
SweepEngine::claim(const SimJob &job, std::uint64_t key,
                   std::promise<SimResult> &prom)
{
    std::lock_guard<std::mutex> lk(cache_mu_);
    const auto it = cache_.find(key);
    if (it == cache_.end()) {
        cache_.emplace(key, prom.get_future().share());
        return std::nullopt;
    }
    memo_hits_.fetch_add(1);
    if (job.kind == JobKind::Isolated)
        isolated_hits_.fetch_add(1);
    return it->second;
}

template <class Fn>
SimResult
SweepEngine::settle(std::uint64_t key, std::promise<SimResult> &prom,
                    Fn &&fn)
{
    try {
        SimResult result = fn();
        prom.set_value(result);
        return result;
    } catch (...) {
        {
            // A failure must not poison the cache: resubmitting the
            // identical job (after a cleared fault or poll hook) gets
            // a fresh attempt instead of the memoized exception.
            // In-flight waiters still receive the exception through
            // their shared_future copies.
            std::lock_guard<std::mutex> lk(cache_mu_);
            cache_.erase(key);
        }
        prom.set_exception(std::current_exception());
        throw;
    }
}

SimResult
SweepEngine::run(const SimJob &job)
{
    const std::uint64_t key = job.key();
    std::promise<SimResult> prom;
    if (auto hit = claim(job, key, prom))
        return hit->get();
    // This thread won the race: compute inline (never enqueue — a
    // blocked waiter must always be waiting on an actively-running
    // computation, so memoization can't deadlock the pool).
    return settle(key, prom, [&] { return compute(job, key); });
}

namespace {

/** Named schemes that resolve to a dynamic Warped-Slicer spec without
 *  simulating anything (SMK_PW's resolution runs isolated baselines,
 *  so no SMK name is resolved just to group it). */
bool
warpedSlicerFamily(NamedScheme named)
{
    switch (named) {
      case NamedScheme::WS:
      case NamedScheme::WS_RBMI:
      case NamedScheme::WS_QBMI:
      case NamedScheme::WS_DMIL:
      case NamedScheme::WS_QBMI_DMIL:
      case NamedScheme::WS_UCP:
        return true;
      default:
        return false;
    }
}

} // namespace

std::optional<std::uint64_t>
SweepEngine::prefixKey(const SimJob &job, SchemeSpec &spec)
{
    // Samplers would record the window, so series jobs run alone.
    if (job.kind != JobKind::Concurrent || job.series.issue ||
        job.series.l1d)
        return std::nullopt;
    if (job.use_named && !warpedSlicerFamily(job.named))
        return std::nullopt;
    spec = job.use_named ? makeNamedScheme(job.cfg, job.cycles,
                                           job.named, job.workload)
                         : job.spec;
    if (spec.partition != PartitionScheme::WarpedSlicer ||
        !spec.oracle_curves.empty() || !spec.faults.empty())
        return std::nullopt;
    // The config, the kernels and the spec's class; not the cycles.
    return setupDigest(job.workload, prefixClass(spec),
                       fieldHash(job.cfg));
}

std::vector<SimResult>
SweepEngine::sweep(const std::vector<SimJob> &jobs)
{
    std::vector<SimResult> results(jobs.size());
    std::vector<std::exception_ptr> errors(jobs.size());

    // Group the jobs that can share a profiling window by prefix
    // class, in submission order; every other job is a group of one.
    std::vector<SchemeSpec> specs(jobs.size());
    std::vector<std::vector<std::size_t>> groups;
    std::unordered_map<std::uint64_t, std::size_t> group_of;
    std::size_t eligible = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::optional<std::uint64_t> cls =
            prefixKey(jobs[i], specs[i]);
        if (!cls) {
            groups.push_back({i});
            continue;
        }
        ++eligible;
        const auto [it, fresh] =
            group_of.try_emplace(*cls, groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].push_back(i);
    }

    // A chunk runs its members one after another on one core, so cap
    // it at ceil(eligible / jobs): a few large classes still fill the
    // pool. Each chunk simulates its own window.
    const auto workers = static_cast<std::size_t>(jobs_);
    const std::size_t cap =
        std::max<std::size_t>(1, (eligible + workers - 1) / workers);
    std::vector<std::vector<std::size_t>> chunks;
    for (const std::vector<std::size_t> &g : groups) {
        for (std::size_t at = 0; at < g.size(); at += cap) {
            const std::size_t end = std::min(g.size(), at + cap);
            chunks.emplace_back(g.begin() + static_cast<std::ptrdiff_t>(at),
                                g.begin() + static_cast<std::ptrdiff_t>(end));
        }
    }
    // Pool owners pop their newest task and thieves the oldest, so
    // ascending sizes start the largest chunks first, one per worker.
    std::stable_sort(chunks.begin(), chunks.end(),
                     [](const auto &a, const auto &b) {
                         return a.size() < b.size();
                     });

    std::vector<std::function<void()>> tasks;
    tasks.reserve(chunks.size());
    for (const std::vector<std::size_t> &chunk : chunks) {
        tasks.push_back([this, &jobs, &specs, &chunk, &results, &errors] {
            runChunk(jobs, specs, chunk, results, errors);
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

void
SweepEngine::runChunk(const std::vector<SimJob> &jobs,
                      const std::vector<SchemeSpec> &specs,
                      const std::vector<std::size_t> &chunk,
                      std::vector<SimResult> &results,
                      std::vector<std::exception_ptr> &errors)
{
    // Claim every member's memo entry first, simulate every member
    // claimed here, and only then wait on members another task
    // claimed: a waiter always waits on a running computation.
    struct Claim
    {
        std::size_t i;
        std::uint64_t key;
        std::promise<SimResult> prom;
    };
    std::vector<Claim> claimed;
    std::vector<std::pair<std::size_t, std::shared_future<SimResult>>>
        waits;
    claimed.reserve(chunk.size());
    for (std::size_t i : chunk) {
        const std::uint64_t key = jobs[i].key();
        std::promise<SimResult> prom;
        if (auto hit = claim(jobs[i], key, prom))
            waits.emplace_back(i, std::move(*hit));
        else
            claimed.push_back({i, key, std::move(prom)});
    }

    // Journaled members are served before any window is simulated.
    std::vector<Claim *> todo;
    for (Claim &c : claimed) {
        SimResult recovered;
        if (journal_ && journal_->find(c.key, recovered)) {
            journal_hits_.fetch_add(1);
            results[c.i] = settle(c.key, c.prom, [&] { return recovered; });
        } else {
            todo.push_back(&c);
        }
    }

    // With two or more members to simulate, the first one simulates
    // the window and snapshots it. A QBMI member's quota state is
    // part of its window, so a QBMI member goes first when there is
    // one. If the window throws, every member runs straight through
    // and reports exactly the error it reports alone.
    std::unique_ptr<Gpu> lead;
    GpuSnapshot window;
    if (todo.size() >= 2) {
        const auto qbmi =
            std::find_if(todo.begin(), todo.end(), [&](const Claim *c) {
                return specs[c->i].bmi == BmiMode::QBMI;
            });
        if (qbmi != todo.end())
            std::rotate(todo.begin(), qbmi, qbmi + 1);
        const SimJob &job = jobs[todo.front()->i];
        const SchemeSpec &spec = specs[todo.front()->i];
        try {
            lead = std::make_unique<Gpu>(job.cfg, job.workload, spec);
            lead->setPollHook(poll_hook_);
            lead->run(spec.ws_profile_window);
            window = lead->snapshot();
            prefix_runs_.fetch_add(1);
        } catch (...) {
            lead.reset();
        }
    }
    const bool shared = lead != nullptr;

    for (Claim *c : todo) {
        const SimJob &job = jobs[c->i];
        try {
            results[c->i] = settle(c->key, c->prom, [&] {
                if (!shared)
                    return simulate(job, c->key, nullptr);
                if (lead) {
                    const std::unique_ptr<Gpu> gpu = std::move(lead);
                    return simulate(job, c->key, gpu.get());
                }
                Gpu gpu(job.cfg, job.workload, specs[c->i]);
                gpu.setPollHook(poll_hook_);
                gpu.restorePrefix(window);
                prefix_restores_.fetch_add(1);
                return simulate(job, c->key, &gpu);
            });
        } catch (...) {
            errors[c->i] = std::current_exception();
        }
    }

    for (auto &[i, fut] : waits) {
        try {
            results[i] = fut.get();
        } catch (...) {
            errors[i] = std::current_exception();
        }
    }
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

SimResult
SweepEngine::compute(const SimJob &job, std::uint64_t key)
{
    if (journal_) {
        SimResult recovered;
        if (journal_->find(key, recovered)) {
            journal_hits_.fetch_add(1);
            return recovered;
        }
    }
    return simulate(job, key, nullptr);
}

SimResult
SweepEngine::simulate(const SimJob &job, std::uint64_t key,
                      Gpu *at_window)
{
    sims_executed_.fetch_add(1);
    SimResult result;
    if (job.kind == JobKind::Isolated) {
        isolated_runs_.fetch_add(1);
        result.isolated = computeIsolated(job);
    } else {
        result.concurrent = computeConcurrent(job, at_window);
    }
    if (journal_)
        journal_->append(key, result);
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
SweepEngine::computeIsolated(const SimJob &job)
{
    const KernelProfile &prof = *job.workload.kernels.at(0);
    Workload wl;
    wl.kernels = {&prof};
    const SchemeSpec spec = makeScheme(PartitionScheme::Leftover,
                                       BmiMode::None, MilMode::None);
    Gpu gpu(job.cfg, wl, spec);
    gpu.setPollHook(poll_hook_);
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
SweepEngine::computeConcurrent(const SimJob &job, Gpu *at_window)
{
    const SchemeSpec spec =
        job.use_named ? makeNamedScheme(job.cfg, job.cycles,
                                        job.named, job.workload)
                      : job.spec;

    auto res = std::make_shared<ConcurrentResult>();
    std::optional<Gpu> own;
    Cycle total = job.cycles;
    if (!at_window) {
        // Dynamic Warped-Slicer spends a profiling window first;
        // extend the run so the measurement phase always covers
        // job.cycles.
        if (spec.partition == PartitionScheme::WarpedSlicer &&
            spec.oracle_curves.empty())
            total += spec.ws_profile_window;
        own.emplace(job.cfg, job.workload, spec);
        own->setPollHook(poll_hook_);
        attachRequestedSeries(job, *own, res->issue_series,
                              res->l1d_series);
    }
    Gpu &gpu = at_window ? *at_window : *own;
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

/**
 * @file
 * SimJob: one simulation as a value — configuration + workload +
 * scheme (+ optional time-series capture) mapping deterministically to
 * a SimResult. Jobs are content-hashable so the SweepEngine can memoize
 * and share identical runs (isolated baselines, scalability points,
 * Req/Minst profiles) across every scheme in a sweep, and are fully
 * self-contained so N jobs can execute on N threads.
 */

#ifndef CKESIM_METRICS_SIM_JOB_HPP
#define CKESIM_METRICS_SIM_JOB_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gpu.hpp"
#include "kernels/workload.hpp"
#include "sim/config.hpp"
#include "sim/stats.hpp"
#include "sim/time_series.hpp"

namespace ckesim {

/** The scheme combinations the paper evaluates by name. */
enum class NamedScheme {
    Spatial,      ///< spatial multitasking reference
    Leftover,     ///< early CKE left-over policy
    WS,           ///< dynamic Warped-Slicer TB partition
    WS_RBMI,      ///< + round-robin BMI
    WS_QBMI,      ///< + quota-based BMI
    WS_DMIL,      ///< + dynamic MIL
    WS_QBMI_DMIL, ///< + both (Section 3.4)
    WS_UCP,       ///< + UCP L1D partitioning (Section 3.1)
    SMK_PW,       ///< SMK partition + warp quota (SMK-(P+W))
    SMK_P_QBMI,   ///< SMK partition + QBMI
    SMK_P_DMIL,   ///< SMK partition + DMIL
};

/** Short display name, e.g. "WS-DMIL". */
std::string schemeName(NamedScheme scheme);

/** Memory-side summary signals (L2 + DRAM) of one run. */
struct MemSideStats
{
    double l2_miss_rate = 0.0;
    double dram_row_hit_rate = 0.0; ///< mean over channels
};

/** Field tables (sim/fields.hpp) of the results, in journal-record
 *  order. */
template <class V, ObjectOf<MemSideStats>... S>
constexpr void
fields(V &v, S &...s)
{
    v(Field{"l2_miss_rate"}, s.l2_miss_rate...);
    v(Field{"dram_row_hit_rate"}, s.dram_row_hit_rate...);
}
static_assert(tableCovers<MemSideStats>());

/** Baseline from an isolated single-kernel run. */
struct IsolatedResult
{
    double ipc = 0.0;         ///< GPU-wide warp instructions / cycle
    double ipc_per_sm = 0.0;
    KernelStats stats;
    SmStats sm_stats;
    int max_tbs = 0;          ///< TBs per SM the run used
    MemSideStats mem;

    /** Captured samplers, one per kernel, when the job asked. */
    std::vector<TimeSeries> issue_series;
    std::vector<TimeSeries> l1d_series;
};

template <class V, ObjectOf<IsolatedResult>... S>
constexpr void
fields(V &v, S &...s)
{
    v(Field{"ipc"}, s.ipc...);
    v(Field{"ipc_per_sm"}, s.ipc_per_sm...);
    v(Field{"stats"}, s.stats...);
    v(Field{"sm_stats"}, s.sm_stats...);
    v(Field{"max_tbs"}, s.max_tbs...);
    v(Field{"mem"}, s.mem...);
    v(Field{"issue_series"}, s.issue_series...);
    v(Field{"l1d_series"}, s.l1d_series...);
}
static_assert(tableCovers<IsolatedResult>());

/** Everything a concurrent run reports. */
struct ConcurrentResult
{
    std::string workload_name;
    std::vector<double> ipc;      ///< per kernel
    std::vector<double> norm_ipc; ///< vs isolated
    double weighted_speedup = 0.0;
    double antt_value = 0.0;
    double fairness = 0.0;
    double theoretical_ws = 0.0;  ///< WS prediction (WS modes)
    std::vector<KernelStats> stats;
    SmStats sm_stats;
    std::vector<int> partition;   ///< chosen per-SM TB counts
    MemSideStats mem;

    /** Captured samplers, one per kernel, when the job asked. */
    std::vector<TimeSeries> issue_series;
    std::vector<TimeSeries> l1d_series;
};

template <class V, ObjectOf<ConcurrentResult>... S>
constexpr void
fields(V &v, S &...s)
{
    v(Field{"workload_name"}, s.workload_name...);
    v(Field{"ipc"}, s.ipc...);
    v(Field{"norm_ipc"}, s.norm_ipc...);
    v(Field{"weighted_speedup"}, s.weighted_speedup...);
    v(Field{"antt_value"}, s.antt_value...);
    v(Field{"fairness"}, s.fairness...);
    v(Field{"theoretical_ws"}, s.theoretical_ws...);
    v(Field{"stats"}, s.stats...);
    v(Field{"sm_stats"}, s.sm_stats...);
    v(Field{"partition"}, s.partition...);
    v(Field{"mem"}, s.mem...);
    v(Field{"issue_series"}, s.issue_series...);
    v(Field{"l1d_series"}, s.l1d_series...);
}
static_assert(tableCovers<ConcurrentResult>());

/** Optional per-kernel event sampling attached to a job's run. */
struct SeriesRequest
{
    bool issue = false; ///< warp instructions issued
    bool l1d = false;   ///< L1D accesses
    Cycle interval{1000};
};

/** Field table (sim/fields.hpp), in job-key order. */
template <class V, ObjectOf<SeriesRequest>... S>
constexpr void
fields(V &v, S &...s)
{
    v(Field{"issue"}, s.issue...);
    v(Field{"l1d"}, s.l1d...);
    v(Field{"interval"}, s.interval...);
}
static_assert(tableCovers<SeriesRequest>());

/** What a SimJob simulates. */
enum class JobKind {
    Isolated,   ///< one kernel, full GPU, optional TB cap
    Concurrent, ///< a CKE workload under one scheme
};

/**
 * One simulation as a value. Build via the factories; equality of
 * key() implies bit-identical results (all inputs are hashed; the
 * display label is not).
 */
struct SimJob
{
    JobKind kind = JobKind::Concurrent;
    GpuConfig cfg;
    Cycle cycles{100000};  ///< measurement cycles (profiling extra)
    Workload workload;     ///< exactly one kernel for Isolated jobs

    /** Isolated jobs: per-SM TB cap; 0 = occupancy maximum. */
    int tb_limit = 0;

    /** Concurrent jobs: a named scheme or an explicit spec. */
    bool use_named = false;
    NamedScheme named = NamedScheme::WS;
    SchemeSpec spec;

    SeriesRequest series;

    /** Display-only tag for sweep output; never hashed. */
    std::string label;

    static SimJob isolated(const GpuConfig &cfg, Cycle cycles,
                           const KernelProfile &prof,
                           int tb_limit = 0);
    static SimJob concurrent(const GpuConfig &cfg, Cycle cycles,
                             const Workload &workload,
                             NamedScheme named);
    static SimJob concurrent(const GpuConfig &cfg, Cycle cycles,
                             const Workload &workload,
                             const SchemeSpec &spec);

    /** FNV-1a content hash over every result-affecting input, in
     *  walkJob order; structs are hashed through their field tables
     *  (sim/fields.hpp). */
    std::uint64_t key() const;

    /** label when set, else a generated "kind:workload:scheme" tag. */
    std::string describe() const;
};

/**
 * The one member walk behind SimJob::key() and the wire codec
 * (encodeSimJob/decodeSimJob, metrics/journal.hpp), in key order:
 * @p v(member) for each result-affecting member, except that the
 * kernels go to v.kernels(workload) by value. The scheme is the named
 * one or the spec, never both; the label is never walked.
 */
template <class V, ObjectOf<SimJob> J>
void
walkJob(V &v, J &job)
{
    v(job.kind);
    v(job.cfg);
    v(job.cycles);
    v.kernels(job.workload);
    v(job.tb_limit);
    v(job.use_named);
    if (job.use_named)
        v(job.named);
    else
        v(job.spec);
    v(job.series);
}

/** walkJob visitor writing through a FieldWriter: the job key and
 *  encodeSimJob. Kernels are a count, then each profile's table. */
template <class Sink>
struct JobWriter
{
    FieldWriter<Sink> out;

    template <class M>
    void
    operator()(const M &m)
    {
        out.put(m);
    }

    void
    kernels(const Workload &workload)
    {
        out.put(workload.numKernels());
        for (const KernelProfile *k : workload.kernels)
            out.put(*k);
    }
};

/**
 * Result of one job: exactly one pointer is set, matching the job's
 * kind. Results are immutable and shared between the memo cache and
 * every sweep that hits it.
 */
struct SimResult
{
    std::shared_ptr<const IsolatedResult> isolated;
    std::shared_ptr<const ConcurrentResult> concurrent;
};

/**
 * Order-sensitive FNV-1a over the content hashes of a whole job
 * list: one value that identifies a campaign. Campaign tables print
 * it, and a service's SubmitAck carries it so the client can check
 * that both sides built the same list.
 */
std::uint64_t campaignFingerprint(const std::vector<SimJob> &jobs);

} // namespace ckesim

#endif // CKESIM_METRICS_SIM_JOB_HPP

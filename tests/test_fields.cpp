/**
 * @file
 * Field tables (sim/fields.hpp) drive the job key, the snapshot config
 * pin, stats sums and fingerprints, and the results codec. A
 * perturbing visitor changes one leaf field at a time and checks that
 * every consumer sees it:
 *  - every config field changes SimJob::key() and the config pin;
 *  - every counter changes fingerprint(), is summed by +=, and
 *    survives a snapshot and a journal round trip;
 *  - every result field survives a journal round trip.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <type_traits>

#include "gpu.hpp"
#include "metrics/journal.hpp"
#include "metrics/sim_job.hpp"
#include "sim/fields.hpp"
#include "sim/snapshot.hpp"

namespace ckesim {
namespace {

/**
 * Changes the target-th leaf field (depth first through nested
 * tables; a vector or array counts as one leaf) and records its
 * dotted path. After a walk, `seen` is the leaf count.
 */
struct PerturbNth
{
    int target = -1;
    int seen = 0;
    std::string prefix;
    std::string path;

    template <class M>
    void
    operator()(const Field &f, M &m)
    {
        if constexpr (HasFields<M>) {
            const std::string outer = prefix;
            prefix += std::string(f.name) + ".";
            fields(*this, m);
            prefix = outer;
        } else if (seen++ == target) {
            change(m);
            path = prefix + f.name;
        }
    }

    template <class M>
    static void
    change(M &m)
    {
        if constexpr (std::is_same_v<M, bool>)
            m = !m;
        else if constexpr (std::is_enum_v<M>)
            m = static_cast<M>(static_cast<int>(m) + 1);
        else if constexpr (std::is_arithmetic_v<M>)
            m += 1;
        else if constexpr (requires { m.get(); }) // Cycle
            m = M(m.get() + 1);
        else if constexpr (std::is_same_v<M, std::string>)
            m += "x";
        else if constexpr (TupleLike<M>) // std::array
            change(m[0]);
        else
            m.emplace_back();
    }
};

/** Calls fn(changed, path) once per leaf field of @p base; returns
 *  the leaf count. */
template <class T, class Fn>
int
forEachPerturbation(const T &base, Fn fn)
{
    for (int i = 0;; ++i) {
        T changed = base;
        PerturbNth p;
        p.target = i;
        fields(p, changed);
        if (i >= p.seen)
            return i;
        fn(changed, p.path);
    }
}

SimJob
baseJob()
{
    return SimJob::concurrent(makeSmallConfig(2, 2), Cycle{1000},
                              makeWorkload({"sv", "ks"}),
                              SchemeSpec{});
}

TEST(FieldTables, NoNewKnobs)
{
    // Member counts of the 16 tabled structs (tableCovers() ties each
    // table to these).
    EXPECT_EQ(aggregateArity<GpuConfig>(), 8);
    EXPECT_EQ(aggregateArity<SmConfig>(), 12);
    EXPECT_EQ(aggregateArity<L1dConfig>(), 7);
    EXPECT_EQ(aggregateArity<L2Config>(), 6);
    EXPECT_EQ(aggregateArity<IcntConfig>(), 3);
    EXPECT_EQ(aggregateArity<DramConfig>(), 8);
    EXPECT_EQ(aggregateArity<IntegrityConfig>(), 4);
    EXPECT_EQ(aggregateArity<SchemeSpec>(), 16);
    EXPECT_EQ(aggregateArity<FaultSpec>(), 6);
    EXPECT_EQ(aggregateArity<KernelProfile>(), 17);
    EXPECT_EQ(aggregateArity<SeriesRequest>(), 3);
    EXPECT_EQ(aggregateArity<KernelStats>(), 14);
    EXPECT_EQ(aggregateArity<SmStats>(), 5);
    EXPECT_EQ(aggregateArity<MemSideStats>(), 2);
    EXPECT_EQ(aggregateArity<IsolatedResult>(), 8);
    EXPECT_EQ(aggregateArity<ConcurrentResult>(), 13);
    GpuConfig cfg;
    EXPECT_EQ(forEachPerturbation(cfg, [](auto &&...) {}), 42);
}

TEST(FieldTables, EveryConfigFieldChangesKeyAndPin)
{
    const SimJob base = baseJob();
    std::set<std::uint64_t> keys{base.key()};
    forEachPerturbation(base.cfg, [&](const GpuConfig &cfg,
                                      const std::string &path) {
        SimJob job = base;
        job.cfg = cfg;
        EXPECT_TRUE(keys.insert(job.key()).second) << path;
        EXPECT_NE(fieldHash(cfg), fieldHash(base.cfg)) << path;
    });
    EXPECT_EQ(keys.size(), 43u);

    // The pin a snapshot carries is that same hash.
    const Gpu gpu(base.cfg, base.workload, base.spec);
    EXPECT_EQ(gpu.snapshot().config_digest, fieldHash(base.cfg));
}

TEST(FieldTables, EverySchemeFieldChangesTheKey)
{
    SimJob base = baseJob();
    base.spec.faults.push_back(
        {FaultKind::DelayFill, Cycle{10}, Cycle{20}, 0, 1, Cycle{5}});
    base.spec.oracle_curves.resize(1);
    base.spec.oracle_curves[0].addPoint(2, 0.5);
    std::set<std::uint64_t> keys{base.key()};
    const int n = forEachPerturbation(
        base.spec,
        [&](const SchemeSpec &spec, const std::string &path) {
            SimJob job = base;
            job.spec = spec;
            EXPECT_TRUE(keys.insert(job.key()).second) << path;
        });
    EXPECT_EQ(n, 16);

    // Each FaultSpec member reaches the key through the faults vector.
    forEachPerturbation(base.spec.faults[0], [&](const FaultSpec &f,
                                                 const std::string &path) {
        SimJob job = base;
        job.spec.faults[0] = f;
        EXPECT_TRUE(keys.insert(job.key()).second) << "faults." << path;
    });
}

TEST(FieldTables, EveryProfileAndSeriesFieldChangesTheKey)
{
    const SimJob base = baseJob();
    std::set<std::uint64_t> keys{base.key()};
    const int n = forEachPerturbation(
        *base.workload.kernels[0],
        [&](const KernelProfile &prof, const std::string &path) {
            SimJob job = base;
            job.workload.kernels[0] = &prof;
            EXPECT_TRUE(keys.insert(job.key()).second) << path;
        });
    EXPECT_EQ(n, 17);
    forEachPerturbation(base.series, [&](const SeriesRequest &series,
                                         const std::string &path) {
        SimJob job = base;
        job.series = series;
        EXPECT_TRUE(keys.insert(job.key()).second) << path;
    });
}

/** Snapshot-codec round trip through the table. */
template <class T>
T
roundTrip(const T &value)
{
    SnapshotWriter w;
    FieldWriter(w).put(value);
    const std::vector<std::uint8_t> bytes = w.take();
    SnapshotReader r(bytes);
    T back;
    FieldReader(r).get(back);
    EXPECT_TRUE(r.atEnd());
    return back;
}

template <class Stats>
void
expectEveryCounterCounts(Stats &(*slot)(ConcurrentResult &))
{
    const Stats zero;
    const int n = forEachPerturbation(
        zero, [&](const Stats &s, const std::string &path) {
            EXPECT_NE(fingerprint(s), fingerprint(zero)) << path;
            Stats twice = s;
            twice += s;
            EXPECT_NE(fingerprint(twice), fingerprint(s)) << path;
            EXPECT_EQ(fingerprint(roundTrip(s)), fingerprint(s)) << path;

            auto con = std::make_shared<ConcurrentResult>();
            slot(*con) = s;
            SimResult result;
            result.concurrent = con;
            ConcurrentResult back =
                *decodeSimResult(encodeSimResult(result)).concurrent;
            EXPECT_EQ(fingerprint(slot(back)), fingerprint(s)) << path;
        });
    EXPECT_EQ(n, aggregateArity<Stats>());
}

TEST(FieldTables, EveryCounterReachesSumsFingerprintsAndCodecs)
{
    expectEveryCounterCounts<KernelStats>(
        [](ConcurrentResult &c) -> KernelStats & {
            c.stats.resize(1);
            return c.stats[0];
        });
    expectEveryCounterCounts<SmStats>(
        [](ConcurrentResult &c) -> SmStats & { return c.sm_stats; });
}

/** Every leaf of @p base changes the journal bytes and decodes back. */
template <class Result>
void
expectEveryResultFieldRoundTrips(
    const Result &base, std::shared_ptr<const Result> SimResult::*slot)
{
    SimResult wrapped;
    wrapped.*slot = std::make_shared<Result>(base);
    const std::vector<std::uint8_t> base_bytes = encodeSimResult(wrapped);
    forEachPerturbation(base, [&](const Result &r,
                                  const std::string &path) {
        SimResult changed;
        changed.*slot = std::make_shared<Result>(r);
        const std::vector<std::uint8_t> bytes = encodeSimResult(changed);
        EXPECT_NE(bytes, base_bytes) << path;
        EXPECT_EQ(encodeSimResult(decodeSimResult(bytes)), bytes) << path;
    });
}

TEST(FieldTables, EveryResultFieldSurvivesTheJournal)
{
    IsolatedResult iso;
    iso.issue_series.emplace_back(Cycle{250});
    iso.issue_series[0].record(Cycle{600}, 3);
    expectEveryResultFieldRoundTrips(iso, &SimResult::isolated);

    ConcurrentResult con;
    con.workload_name = "sv+ks";
    con.ipc = {1.5, 0.25};
    con.stats.resize(2);
    expectEveryResultFieldRoundTrips(con, &SimResult::concurrent);
}

} // namespace
} // namespace ckesim

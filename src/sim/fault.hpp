/**
 * @file
 * Fault-injection framework for the simulation integrity layer.
 *
 * Faults model degraded memory pipelines — exactly the back-pressure
 * regimes the paper's schemes are meant to survive — and double as a
 * proving ground for the watchdog and conservation invariants: every
 * injected deadlock must be detected and reported, never spun on.
 *
 * A fault is a (kind, target, window, budget) tuple. The owning Gpu
 * threads one FaultInjector through the memory system and SMs; each
 * component polls the injector at its fault point. All queries are
 * deterministic (no RNG): faults fire whenever their window covers the
 * current cycle and their occurrence budget is not exhausted.
 */

#ifndef CKESIM_SIM_FAULT_HPP
#define CKESIM_SIM_FAULT_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "sim/fields.hpp"
#include "sim/types.hpp"

namespace ckesim {

class SnapshotWriter;
class SnapshotReader;

/** What to break, and where in the pipeline it bites. */
enum class FaultKind {
    None = 0,
    /** Discard read fills bound for an L1D (target = SM id). The
     *  L1 MSHR is never released and the waiting warps never wake:
     *  a hard deadlock the watchdog must catch. */
    DropFill,
    /** Delay read fills bound for an L1D by `delay` cycles
     *  (target = SM id). Livelock-ish degradation, not deadlock. */
    DelayFill,
    /** Refuse all forward-crossbar injections towards an L2
     *  partition (target = partition id). Miss queues back up and
     *  reservation failures cascade into every co-runner. */
    StallCrossbar,
    /** Freeze a DRAM channel: no new transaction starts
     *  (target = channel id). */
    FreezeDram,
    /** Force the LSU head access to fail reservation
     *  (target = SM id). Exercises the MILG rsfail path. */
    ForceRsFail,
};

inline constexpr int kNumFaultKinds = 6;

/** One injected fault. */
struct FaultSpec
{
    FaultKind kind = FaultKind::None;
    /** Active window [begin, end); end = kNeverCycle means forever. */
    Cycle begin{};
    Cycle end = kNeverCycle;
    /** SM / partition / channel index; -1 = every instance. */
    int target = -1;
    /** Max occurrences (DropFill/DelayFill/ForceRsFail); -1 = all. */
    int budget = -1;
    /** Added fill latency (DelayFill only). */
    Cycle delay{};
};

/** Field table (sim/fields.hpp), in job-key order. */
template <class V, ObjectOf<FaultSpec>... S>
constexpr void
fields(V &v, S &...s)
{
    v(Field{"kind"}, s.kind...);
    v(Field{"begin"}, s.begin...);
    v(Field{"end"}, s.end...);
    v(Field{"target"}, s.target...);
    v(Field{"budget"}, s.budget...);
    v(Field{"delay"}, s.delay...);
}
static_assert(tableCovers<FaultSpec>());

/** Deterministic fault oracle polled by pipeline components. */
class FaultInjector
{
  public:
    FaultInjector() = default;
    explicit FaultInjector(std::vector<FaultSpec> faults);

    bool empty() const { return faults_.empty(); }

    /** Should this read fill bound for SM @p sm_id be discarded? */
    bool dropFill(SmId sm_id, Cycle now);

    /** Extra delay for a fill bound for SM @p sm_id (0 = none). */
    Cycle fillDelay(SmId sm_id, Cycle now);

    /** Is the forward-crossbar port to partition @p dest jammed? */
    bool stallCrossbarPort(int dest, Cycle now);

    /** Is DRAM channel @p channel frozen this cycle? */
    bool dramFrozen(int channel, Cycle now);

    /** Must SM @p sm_id's LSU head fail reservation this cycle? */
    bool forceRsFail(SmId sm_id, Cycle now);

    /** How often faults of @p kind actually fired. */
    std::uint64_t firedCount(FaultKind kind) const
    {
        return fired_[static_cast<std::size_t>(kind)];
    }

    /** Any fault fired at all (audit exempts faulted runs). */
    bool anyFired() const;

    /** Checkpoint walk of the mutable state: per-spec budgets and
     *  fired counters (sim/snapshot.hpp archives). The spec list
     *  itself is configuration and must match what was captured. */
    template <class Ar, ObjectOf<FaultInjector> Self>
    static void state(Ar &ar, Self &self);

  private:
    /** Find an armed spec of @p kind covering (@p target, @p now);
     *  consumes one unit of its budget when @p consume. */
    bool match(FaultKind kind, int target, Cycle now, bool consume,
               const FaultSpec **out = nullptr);

    std::vector<FaultSpec> faults_;
    std::array<std::uint64_t, kNumFaultKinds> fired_{};
};

/** Validate one fault spec; throws SimError on nonsense. */
void validateFaultSpec(const FaultSpec &spec, int num_sms,
                       int num_partitions);

} // namespace ckesim

#endif // CKESIM_SIM_FAULT_HPP

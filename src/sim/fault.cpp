#include "sim/fault.hpp"

#include "sim/check.hpp"
#include "sim/snapshot.hpp"

namespace ckesim {

FaultInjector::FaultInjector(std::vector<FaultSpec> faults)
    : faults_(std::move(faults))
{
}

bool
FaultInjector::match(FaultKind kind, int target, Cycle now,
                     bool consume, const FaultSpec **out)
{
    for (FaultSpec &f : faults_) {
        if (f.kind != kind)
            continue;
        if (now < f.begin || now >= f.end)
            continue;
        if (f.target >= 0 && f.target != target)
            continue;
        if (f.budget == 0)
            continue;
        if (consume) {
            if (f.budget > 0)
                --f.budget;
            ++fired_[static_cast<std::size_t>(kind)];
        }
        if (out)
            *out = &f;
        return true;
    }
    return false;
}

bool
FaultInjector::dropFill(SmId sm_id, Cycle now)
{
    return match(FaultKind::DropFill, sm_id.get(), now,
                 /*consume=*/true);
}

Cycle
FaultInjector::fillDelay(SmId sm_id, Cycle now)
{
    const FaultSpec *spec = nullptr;
    if (!match(FaultKind::DelayFill, sm_id.get(), now,
               /*consume=*/true, &spec))
        return Cycle{};
    return spec->delay;
}

bool
FaultInjector::stallCrossbarPort(int dest, Cycle now)
{
    return match(FaultKind::StallCrossbar, dest, now,
                 /*consume=*/true);
}

bool
FaultInjector::dramFrozen(int channel, Cycle now)
{
    return match(FaultKind::FreezeDram, channel, now,
                 /*consume=*/true);
}

bool
FaultInjector::forceRsFail(SmId sm_id, Cycle now)
{
    return match(FaultKind::ForceRsFail, sm_id.get(), now,
                 /*consume=*/true);
}

bool
FaultInjector::anyFired() const
{
    for (std::uint64_t n : fired_)
        if (n > 0)
            return true;
    return false;
}

template <class Ar, ObjectOf<FaultInjector> Self>
void
FaultInjector::state(Ar &ar, Self &self)
{
    ar.section("fault_injector");
    ar.fixedLength(self.faults_);
    for (auto &f : self.faults_)
        ar.i64(f.budget);
    for (auto &n : self.fired_)
        ar.u64(n);
}

template void FaultInjector::state(SnapshotWriter &, const FaultInjector &);
template void FaultInjector::state(SnapshotReader &, FaultInjector &);

void
validateFaultSpec(const FaultSpec &spec, int num_sms,
                  int num_partitions)
{
    SimCtx ctx;
    ctx.module = "fault";
    SIM_CHECK(spec.kind != FaultKind::None, ctx,
              "fault spec with kind None");
    SIM_CHECK(spec.begin < spec.end, ctx,
              "fault window empty: begin=" << spec.begin
                                           << " end=" << spec.end);
    const bool sm_scoped = spec.kind == FaultKind::DropFill ||
                           spec.kind == FaultKind::DelayFill ||
                           spec.kind == FaultKind::ForceRsFail;
    const int limit = sm_scoped ? num_sms : num_partitions;
    SIM_CHECK(spec.target >= -1 && spec.target < limit, ctx,
              "fault target " << spec.target << " out of range [0,"
                              << limit << ") (-1 = all)");
    if (spec.kind == FaultKind::DelayFill)
        SIM_CHECK(spec.delay > Cycle{}, ctx,
                  "DelayFill with zero delay");
}

} // namespace ckesim

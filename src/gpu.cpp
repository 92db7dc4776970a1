#include "gpu.hpp"

#include <algorithm>
#include <iostream>
#include <sstream>

#include "sim/check.hpp"

namespace ckesim {

namespace {
SimCtx
gpuCtx(Cycle now = kNeverCycle)
{
    SimCtx ctx;
    ctx.cycle = now;
    ctx.module = "gpu";
    return ctx;
}

void
schemeFail(const std::string &field, const std::string &why)
{
    SimCtx ctx;
    ctx.module = "scheme";
    raiseSimError("ConfigError", ctx, field + ": " + why);
}
} // namespace

void
SchemeSpec::validate(const GpuConfig &cfg) const
{
    if (smk_warp_quota) {
        if (smk_epoch_cycles < Cycle{1})
            schemeFail("smk_epoch_cycles", "must be >= 1");
        if (isolated_ipc_per_sm.empty())
            schemeFail("isolated_ipc_per_sm",
                       "required when smk_warp_quota is set");
        for (double ipc : isolated_ipc_per_sm) {
            if (!(ipc >= 0.0))
                schemeFail("isolated_ipc_per_sm",
                           "entries must be non-negative");
        }
    }
    if (ucp && ucp_interval < Cycle{1})
        schemeFail("ucp_interval", "must be >= 1");
    if (partition == PartitionScheme::WarpedSlicer &&
        oracle_curves.empty() && ws_profile_window < Cycle{1})
        schemeFail("ws_profile_window",
                   "dynamic Warped-Slicer needs a positive window");
    if (global_dmil && global_dmil_interval < Cycle{1})
        schemeFail("global_dmil_interval", "must be >= 1");
    for (std::size_t k = 0; k < smil_limits.size(); ++k) {
        if (smil_limits[k] < 0)
            schemeFail("smil_limits",
                       "negative SMIL limit for kernel " +
                           std::to_string(k));
    }
    for (const FaultSpec &f : faults)
        validateFaultSpec(f, cfg.num_sms, cfg.numL2Partitions());
}

SchemeSpec
prefixClass(const SchemeSpec &spec)
{
    // Why each reset field cannot touch the window (DESIGN.md §9):
    // MIL is bypassed while profiling and finishProfiling() resets
    // every MILG; global DMIL is skipped while profiling; and QBMI
    // admits every request while each SM holds one kernel.
    const SchemeSpec defaults;
    SchemeSpec cls = spec;
    cls.mil = defaults.mil;
    cls.smil_limits = defaults.smil_limits;
    cls.global_dmil = defaults.global_dmil;
    cls.global_dmil_interval = defaults.global_dmil_interval;
    if (cls.bmi == BmiMode::QBMI)
        cls.bmi = BmiMode::None;
    return cls;
}

std::uint64_t
setupDigest(const Workload &workload, const SchemeSpec &spec,
            std::uint64_t seed)
{
    Fnv1a h(seed);
    FieldWriter out(h);
    out.put(workload.numKernels());
    for (const KernelProfile *k : workload.kernels)
        out.put(*k);
    out.put(spec);
    return h.value();
}

SchemeSpec
makeScheme(PartitionScheme partition, BmiMode bmi, MilMode mil)
{
    SchemeSpec spec;
    spec.partition = partition;
    spec.bmi = bmi;
    spec.mil = mil;
    return spec;
}

Gpu::Gpu(const GpuConfig &cfg, const Workload &workload,
         const SchemeSpec &spec)
    : cfg_(cfg), workload_(workload), spec_(spec), mem_(cfg)
{
    cfg.validate();
    spec.validate(cfg);
    SIM_CHECK(workload.numKernels() >= 1 &&
                  workload.numKernels() <= kMaxKernelsPerSm,
              gpuCtx(),
              "workload has " << workload.numKernels()
                              << " kernels (supported: 1.."
                              << kMaxKernelsPerSm << ")");

    IssuePolicyConfig policy;
    policy.bmi = spec.bmi;
    policy.mil = spec.mil;
    policy.static_limits = spec.smil_limits;
    policy.warp_quota_enabled = spec.smk_warp_quota;
    if (spec.smk_warp_quota) {
        policy.warp_quotas =
            smkWarpQuotas(spec.isolated_ipc_per_sm,
                          spec.smk_epoch_cycles);
    }

    sms_.reserve(static_cast<std::size_t>(cfg.num_sms));
    for (int s = 0; s < cfg.num_sms; ++s) {
        sms_.push_back(std::make_unique<Sm>(cfg, SmId{s}, mem_,
                                            workload.kernels, policy));
    }

    // Section 4.5 ablations.
    if (spec.mshr_partition) {
        const int quota =
            cfg.l1d.num_mshrs /
            std::max(workload.numKernels(), 1);
        for (auto &sm : sms_)
            for (int k = 0; k < workload.numKernels(); ++k)
                sm->l1d().setMshrQuota(KernelId{k}, quota);
    }
    for (int k = 0; k < workload.numKernels(); ++k) {
        if (spec.bypass_l1d[static_cast<std::size_t>(k)])
            for (auto &sm : sms_)
                sm->l1d().setBypass(KernelId{k}, true);
    }

    if (spec.ucp) {
        umons_.resize(sms_.size());
        taps_.resize(sms_.size());
        for (std::size_t s = 0; s < sms_.size(); ++s) {
            for (int k = 0; k < numKernels(); ++k) {
                umons_[s].emplace_back(cfg.l1d.numSets(),
                                       cfg.l1d.assoc);
            }
            taps_[s] = Tap{this, static_cast<int>(s)};
            sms_[s]->setAccessObserver(&Gpu::accessTap, &taps_[s]);
        }
    }

    if (!spec.faults.empty()) {
        fault_injector_ = FaultInjector(spec.faults);
        mem_.setFaultInjector(&fault_injector_);
        for (auto &sm : sms_)
            sm->setFaultInjector(&fault_injector_);
    }

    if (Profiler::envEnabled()) {
        owned_prof_ = std::make_unique<Profiler>();
        owned_prof_->enable();
        setProfiler(owned_prof_.get());
    }

    setupInitialPartition();
}

Gpu::~Gpu()
{
    if (!owned_prof_)
        return;
    // One write: tables of Gpus torn down on other threads must not
    // interleave with this one.
    std::ostringstream table;
    owned_prof_->report(table);
    std::cerr << table.str(); // SIMCHECK-ALLOW(stdio): CKESIM_PROF teardown report
}

void
Gpu::accessTap(void *opaque, KernelId k, LineAddr line)
{
    Tap *tap = static_cast<Tap *>(opaque);
    tap->gpu->umons_[static_cast<std::size_t>(tap->sm)][k.idx()]
        .access(line);
}

void
Gpu::applyQuotas(const QuotaMatrix &quotas)
{
    SIM_CHECK(static_cast<int>(quotas.size()) == numSms(),
              gpuCtx(now_),
              "quota matrix has " << quotas.size() << " rows for "
                                  << numSms() << " SMs");
    for (int s = 0; s < numSms(); ++s)
        for (int k = 0; k < numKernels(); ++k)
            sms_[static_cast<std::size_t>(s)]->setTbQuota(
                KernelId{k}, quotas[static_cast<std::size_t>(s)]
                                   [static_cast<std::size_t>(k)]);
}

void
Gpu::setupInitialPartition()
{
    const auto &kernels = workload_.kernels;
    switch (spec_.partition) {
      case PartitionScheme::Leftover: {
        partition_ = leftoverPartition(kernels, cfg_.sm);
        applyQuotas(broadcastPartition(partition_, cfg_.num_sms));
        break;
      }
      case PartitionScheme::Spatial: {
        applyQuotas(spatialPartition(kernels, cfg_));
        break;
      }
      case PartitionScheme::SmkDrf: {
        partition_ = drfPartition(kernels, cfg_.sm);
        applyQuotas(broadcastPartition(partition_, cfg_.num_sms));
        break;
      }
      case PartitionScheme::WarpedSlicer: {
        if (!spec_.oracle_curves.empty()) {
            // Static Warped-Slicer: curves supplied, no online window.
            sweet_ = findSweetPoint(spec_.oracle_curves, kernels,
                                    cfg_.sm);
            partition_ = sweet_.tbs;
            applyQuotas(broadcastPartition(partition_, cfg_.num_sms));
            break;
        }
        // Dynamic profiling: SM s runs one kernel at one TB count.
        // Scalability curves are measured unthrottled; MIL resumes
        // (with fresh MILGs) for the measurement phase.
        profiling_ = true;
        profile_end_ = spec_.ws_profile_window;
        for (auto &sm : sms_)
            sm->controller().setMilBypass(true);
        profile_assign_.assign(sms_.size(), {-1, 0});
        const int n = numKernels();
        const int per = std::max(1, cfg_.num_sms / n);
        QuotaMatrix quotas(sms_.size());
        for (auto &row : quotas)
            row.fill(0);
        for (int k = 0; k < n; ++k) {
            const int max_tbs =
                kernels[static_cast<std::size_t>(k)]->maxTbsPerSm(
                    cfg_.sm);
            const std::vector<int> counts =
                profilingTbCounts(max_tbs, per);
            for (int j = 0; j < per; ++j) {
                const int s = k * per + j;
                if (s >= cfg_.num_sms)
                    break;
                const int count =
                    j < static_cast<int>(counts.size())
                        ? counts[static_cast<std::size_t>(j)]
                        : counts.back();
                quotas[static_cast<std::size_t>(s)]
                      [static_cast<std::size_t>(k)] = count;
                profile_assign_[static_cast<std::size_t>(s)] = {k,
                                                                count};
            }
        }
        // Remainder SMs: run kernel 0 at max (not used for curves).
        for (int s = n * per; s < cfg_.num_sms; ++s) {
            quotas[static_cast<std::size_t>(s)][0] =
                kernels[0]->maxTbsPerSm(cfg_.sm);
        }
        applyQuotas(quotas);
        break;
      }
    }
}

void
Gpu::finishProfiling()
{
    profiling_ = false;
    const auto &kernels = workload_.kernels;
    const int n = numKernels();

    std::vector<ScalabilityCurve> curves(
        static_cast<std::size_t>(n));
    for (std::size_t s = 0; s < sms_.size(); ++s) {
        const auto [k, count] = profile_assign_[s];
        if (k < 0)
            continue;
        const double ipc =
            static_cast<double>(sms_[s]
                                    ->kernelStats(KernelId{k})
                                    .issued_instructions) /
            static_cast<double>(spec_.ws_profile_window.get());
        curves[static_cast<std::size_t>(k)].addPoint(count, ipc);
    }

    sweet_ = findSweetPoint(curves, kernels, cfg_.sm);
    partition_ = sweet_.tbs;
    applyQuotas(broadcastPartition(partition_, cfg_.num_sms));

    for (auto &sm : sms_) {
        sm->resetStats();
        sm->controller().setMilBypass(false);
    }
    measured_start_ = now_;
}

void
Gpu::ucpRepartition()
{
    const int assoc = cfg_.l1d.assoc;
    for (std::size_t s = 0; s < sms_.size(); ++s) {
        std::vector<const UmonMonitor *> mons;
        for (int k = 0; k < numKernels(); ++k)
            mons.push_back(&umons_[s][static_cast<std::size_t>(k)]);

        const std::vector<int> alloc =
            ucpLookaheadPartition(mons, assoc);
        int first = 0;
        for (int k = 0; k < numKernels(); ++k) {
            sms_[s]->l1d().restrictKernelWays(
                KernelId{k}, first,
                alloc[static_cast<std::size_t>(k)]);
            first += alloc[static_cast<std::size_t>(k)];
        }
        for (auto &m : umons_[s])
            m.age();
    }
}

void
Gpu::tickComponents(Cycle at, bool drain)
{
    // THE tick ordering, shared by the run loop and the audit drain:
    // SMs first (they inject into the interconnect), then the memory
    // system below them.
    for (auto &sm : sms_)
        drain ? sm->drainTick(at) : sm->tick(at);
    mem_.tick(at);
}

void
Gpu::stepCycle()
{
    {
        ProfScope prof_scheme(ProfComp::Scheme);
        if (profiling_ && now_ == profile_end_)
            finishProfiling();
        if (spec_.ucp && now_ > Cycle{} &&
            now_ % spec_.ucp_interval == 0)
            ucpRepartition();
        if (spec_.global_dmil && spec_.mil == MilMode::Dynamic &&
            !profiling_ && now_ > Cycle{} &&
            now_ % spec_.global_dmil_interval == 0) {
            // Broadcast SM 0's MILG decisions to every other SM.
            for (int ki = 0; ki < numKernels(); ++ki) {
                const KernelId k{ki};
                const int limit = sms_[0]->controller().milLimit(k);
                for (std::size_t s = 1; s < sms_.size(); ++s)
                    sms_[s]->controller().overrideMilLimit(k, limit);
            }
        }
    }
    tickComponents(now_, /*drain=*/false);

    const int interval = cfg_.integrity.check_interval;
    if (interval > 0 && now_ % interval == 0) {
        ProfScope prof_integrity(ProfComp::Integrity);
        watchdogPoll();
        if (cfg_.integrity.periodic_checks)
            checkInvariants();
        if (poll_hook_)
            poll_hook_();
    }
}

void
Gpu::run(Cycle cycles)
{
    const Cycle end = now_ + cycles;
    const Profiler::Armed sampling(cost_prof_);
    // The loop glue (tick dispatch, cadence checks) is `runloop`;
    // the component scopes inside it take over the thread's byte.
    ProfScope prof_loop(ProfComp::Runloop);
    while (now_ < end) {
        stepCycle();
        ++now_;
    }
}

std::uint64_t
Gpu::progressSignature() const
{
    // Lifetime counters only: resetStats() at phase changes must not
    // look like (or hide) progress.
    std::uint64_t sig = mem_.deliveredFills();
    for (const auto &sm : sms_)
        sig += sm->progressCount();
    return sig;
}

bool
Gpu::hasPendingWork() const
{
    if (!mem_.quiescent())
        return true;
    for (const auto &sm : sms_)
        if (sm->hasWork())
            return true;
    return false;
}

void
Gpu::watchdogPoll()
{
    const std::uint64_t sig = progressSignature();
    if (sig != last_progress_sig_) {
        last_progress_sig_ = sig;
        last_progress_cycle_ = now_;
        return;
    }
    const int timeout = cfg_.integrity.watchdog_timeout;
    if (timeout <= 0)
        return;
    if (now_ - last_progress_cycle_ < Cycle{timeout})
        return;
    // A machine with nothing resident or in flight is idle, not hung.
    if (!hasPendingWork())
        return;
    // Memory pipeline stalls are the only hang mode this machine has:
    // with no memory request outstanding anywhere, a flat progress
    // signature means a long compute phase (e.g. every resident warp
    // busy on a high-latency SFU op), not a deadlock. Firing there is
    // a false positive.
    if (!memoryInFlight())
        return;
    raiseWatchdog();
}

bool
Gpu::memoryInFlight() const
{
    if (mem_.inflightReads() > 0 || !mem_.quiescent())
        return true;
    for (const auto &sm : sms_)
        if (!sm->memDrained())
            return true;
    return false;
}

void
Gpu::raiseWatchdog()
{
    std::ostringstream os;
    os << "no instruction issued, request returned or fill delivered "
          "since cycle "
       << last_progress_cycle_ << " ("
       << (now_ - last_progress_cycle_) << " cycles) with work pending\n";
    for (const auto &sm : sms_)
        os << "  " << sm->describeState() << "\n";
    os << mem_.describeState();
    raiseSimError("Watchdog", gpuCtx(now_), os.str());
}

void
Gpu::checkInvariants()
{
    mem_.checkInvariants(now_);
    for (const auto &sm : sms_)
        sm->checkInvariants(now_);
}

void
Gpu::audit()
{
    // The audit proves conservation on a healthy pipeline; detach the
    // injector so a still-armed fault cannot block the drain itself.
    // State already corrupted by fired faults (leaked MSHRs, dropped
    // fills) remains and is what checkDrained reports.
    mem_.setFaultInjector(nullptr);
    for (auto &sm : sms_)
        sm->setFaultInjector(nullptr);

    auto drained = [this] {
        if (!mem_.quiescent())
            return false;
        for (const auto &sm : sms_)
            if (!sm->memDrained())
                return false;
        return true;
    };

    Cycle spent{};
    const Cycle limit{cfg_.integrity.audit_drain_limit};
    while (spent < limit && !drained()) {
        tickComponents(now_ + spent, /*drain=*/true);
        ++spent;
    }

    // now_ stays put: the audit is bookkeeping, not simulated time,
    // and must not distort measuredCycles().
    const Cycle when = now_ + spent;
    mem_.checkDrained(when);
    for (auto &sm : sms_)
        sm->checkDrained(when);
}

double
Gpu::ipc(KernelId k) const
{
    const Cycle cycles = measuredCycles();
    if (cycles == Cycle{})
        return 0.0;
    std::uint64_t instrs = 0;
    for (const auto &sm : sms_)
        instrs += sm->kernelStats(k).issued_instructions;
    return static_cast<double>(instrs) /
           static_cast<double>(cycles.get());
}

KernelStats
Gpu::kernelStatsTotal(KernelId k) const
{
    KernelStats total;
    for (const auto &sm : sms_)
        total += sm->kernelStats(k);
    return total;
}

SmStats
Gpu::smStatsTotal() const
{
    SmStats total;
    for (const auto &sm : sms_)
        total += sm->smStats();
    return total;
}

// ---- crash safety -------------------------------------------------------

template <class Ar, ObjectOf<Gpu> Self>
void
Gpu::state(Ar &ar, Self &self)
{
    ar.section("gpu");
    ar.boolean(self.profiling_);
    ar.unit(self.profile_end_);
    ar.fields(self.profile_assign_);
    ar.fields(self.sweet_.tbs);
    ar.f64(self.sweet_.theoretical_ws);
    ar.fields(self.sweet_.predicted_norm_ipc);
    ar.fields(self.partition_);
    ar.unit(self.now_);
    ar.unit(self.measured_start_);
    ar.u64(self.last_progress_sig_);
    ar.unit(self.last_progress_cycle_);
    FaultInjector::state(ar, self.fault_injector_);
    ar.fixedLength(self.umons_);
    for (auto &row : self.umons_)
        for (auto &m : row)
            UmonMonitor::state(ar, m);
    MemorySystem::state(ar, self.mem_);
    for (const auto &sm : self.sms_)
        Sm::state(ar, likeSelf<Self>(*sm));
}

GpuSnapshot
Gpu::snapshot() const
{
    SnapshotWriter w(SnapshotCodec::Deflate);
    state(w, *this);

    GpuSnapshot snap;
    snap.version = kSnapshotFormatVersion;
    snap.cycle = now_;
    snap.config_digest = fieldHash(cfg_);
    snap.setup_digest = setupDigest(workload_, spec_);
    snap.prefix_digest = setupDigest(workload_, prefixClass(spec_));
    snap.fingerprint = w.fingerprint();
    snap.plain_size = w.plainSize();
    snap.bytes = w.take();
    return snap;
}

void
Gpu::checkPins(const GpuSnapshot &snap, std::uint64_t recorded,
               std::uint64_t setup, const char *what) const
{
    const SimCtx ctx = gpuCtx(now_);
    if (snap.version != kSnapshotFormatVersion)
        raiseSimError(
            "Snapshot", ctx,
            "snapshot format version " + std::to_string(snap.version) +
                " does not match this build's " +
                std::to_string(kSnapshotFormatVersion) +
                " (no migration; re-run from scratch)");
    if (snap.config_digest != fieldHash(cfg_))
        raiseSimError("Snapshot", ctx,
                      "snapshot was taken under a different GpuConfig "
                      "(a field differs)");
    if (recorded != setup)
        raiseSimError("Snapshot", ctx,
                      std::string("snapshot was taken under different "
                                  "kernels (or kernel count) or ") +
                          what);
}

void
Gpu::restore(const GpuSnapshot &snap)
{
    checkPins(snap, snap.setup_digest, setupDigest(workload_, spec_),
              "a different SchemeSpec");
    decode(snap);
}

void
Gpu::restorePrefix(const GpuSnapshot &snap)
{
    checkPins(snap, snap.prefix_digest,
              setupDigest(workload_, prefixClass(spec_)),
              "another prefix class");
    // A window snapshot is taken before the stepCycle that runs
    // finishProfiling(), so it still has profiling_ set.
    if (!profiling_ || snap.cycle != profile_end_)
        raiseSimError("Snapshot", gpuCtx(now_),
                      "snapshot at cycle " +
                          std::to_string(snap.cycle.get()) +
                          " is not at this machine's profiling "
                          "boundary (cycle " +
                          std::to_string(profile_end_.get()) + ")");
    decode(snap);
    // Within a class, the controllers' QBMI state is the only part of
    // the window that depends on the scheme.
    for (auto &sm : sms_)
        sm->controller().canonicalizeQbmiState();
}

void
Gpu::decode(const GpuSnapshot &snap)
{
    const SimCtx ctx = gpuCtx(now_);
    SnapshotReader r(snap);
    state(r, *this);
    SIM_CHECK(r.atEnd(), ctx,
              "snapshot payload has " << (snap.plain_size - r.offset())
                  << " trailing byte(s) after restore");
    SIM_CHECK(now_ == snap.cycle, ctx,
              "snapshot metadata cycle " << snap.cycle
                  << " disagrees with serialized clock " << now_);
}

void
Gpu::attachSeries(KernelId k, TimeSeries *issue, TimeSeries *l1d)
{
    for (auto &sm : sms_) {
        sm->setIssueSeries(k, issue);
        sm->setL1dSeries(k, l1d);
    }
}

} // namespace ckesim

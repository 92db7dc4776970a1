#include "metrics/sim_job.hpp"

namespace ckesim {

std::string
schemeName(NamedScheme scheme)
{
    switch (scheme) {
      case NamedScheme::Spatial:
        return "Spatial";
      case NamedScheme::Leftover:
        return "Leftover";
      case NamedScheme::WS:
        return "WS";
      case NamedScheme::WS_RBMI:
        return "WS-RBMI";
      case NamedScheme::WS_QBMI:
        return "WS-QBMI";
      case NamedScheme::WS_DMIL:
        return "WS-DMIL";
      case NamedScheme::WS_QBMI_DMIL:
        return "WS-QBMI+DMIL";
      case NamedScheme::WS_UCP:
        return "WS-L1DPartition";
      case NamedScheme::SMK_PW:
        return "SMK-(P+W)";
      case NamedScheme::SMK_P_QBMI:
        return "SMK-(P+QBMI)";
      case NamedScheme::SMK_P_DMIL:
        return "SMK-(P+DMIL)";
    }
    return "?";
}

// ---- SimJob ------------------------------------------------------------

SimJob
SimJob::isolated(const GpuConfig &cfg, Cycle cycles,
                 const KernelProfile &prof, int tb_limit)
{
    SimJob job;
    job.kind = JobKind::Isolated;
    job.cfg = cfg;
    job.cycles = cycles;
    job.workload.kernels = {&prof};
    job.tb_limit = tb_limit;
    return job;
}

SimJob
SimJob::concurrent(const GpuConfig &cfg, Cycle cycles,
                   const Workload &workload, NamedScheme named)
{
    SimJob job;
    job.kind = JobKind::Concurrent;
    job.cfg = cfg;
    job.cycles = cycles;
    job.workload = workload;
    job.use_named = true;
    job.named = named;
    return job;
}

SimJob
SimJob::concurrent(const GpuConfig &cfg, Cycle cycles,
                   const Workload &workload, const SchemeSpec &spec)
{
    SimJob job;
    job.kind = JobKind::Concurrent;
    job.cfg = cfg;
    job.cycles = cycles;
    job.workload = workload;
    job.use_named = false;
    job.spec = spec;
    return job;
}

std::uint64_t
SimJob::key() const
{
    Fnv1a h;
    JobWriter<Fnv1a> out{FieldWriter(h)};
    walkJob(out, *this);
    return h.value();
}

std::string
SimJob::describe() const
{
    if (!label.empty())
        return label;
    std::string d = kind == JobKind::Isolated ? "iso:" : "cke:";
    d += workload.name();
    if (kind == JobKind::Isolated) {
        if (tb_limit > 0) {
            d += '#';
            d += std::to_string(tb_limit);
        }
    } else if (use_named) {
        d += ':';
        d += schemeName(named);
    } else {
        d += ":spec";
    }
    return d;
}

std::uint64_t
campaignFingerprint(const std::vector<SimJob> &jobs)
{
    Fnv1a h;
    h.u64(jobs.size());
    for (const SimJob &job : jobs)
        h.u64(job.key());
    return h.value();
}

} // namespace ckesim

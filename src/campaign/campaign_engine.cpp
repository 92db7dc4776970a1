#include "campaign/campaign_engine.hpp"

#include <unistd.h>

#include <cinttypes>
#include <cstdio>

#include "metrics/journal.hpp"
#include "sim/check.hpp"

namespace ckesim {

const char *
campaignJobStateName(CampaignJobState state)
{
    switch (state) {
      case CampaignJobState::Completed:
        return "completed";
      case CampaignJobState::Failed:
        return "failed";
      case CampaignJobState::Poisoned:
        return "poisoned";
      case CampaignJobState::Exhausted:
        return "exhausted";
      case CampaignJobState::Drained:
        return "drained";
    }
    return "unknown";
}

bool
CampaignOutcome::allCompleted() const
{
    for (const CampaignJobOutcome &job : jobs)
        if (!job.ok())
            return false;
    return true;
}

std::uint32_t
resultFingerprint(const SimResult &result)
{
    const std::vector<std::uint8_t> bytes = encodeSimResult(result);
    return crc32(bytes.data(), bytes.size());
}

std::string
formatCampaignTable(const std::string &name, std::uint64_t cycles,
                    const std::vector<SimJob> &jobs,
                    const std::vector<CampaignJobOutcome> &outcomes)
{
    if (jobs.size() != outcomes.size()) {
        SimCtx ctx;
        ctx.module = "campaign.table";
        raiseSimError("Campaign", ctx,
                      "job/outcome count mismatch: " +
                          std::to_string(jobs.size()) + " jobs vs " +
                          std::to_string(outcomes.size()) +
                          " outcomes");
    }
    std::string out;
    char line[256];
    std::snprintf(line, sizeof line,
                  "campaign %s cycles=%llu jobs=%zu "
                  "fingerprint=%016" PRIx64 "\n",
                  name.c_str(),
                  static_cast<unsigned long long>(cycles),
                  jobs.size(), campaignFingerprint(jobs));
    out += line;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const CampaignJobOutcome &o = outcomes[i];
        if (o.ok())
            std::snprintf(line, sizeof line,
                          "%4zu %016" PRIx64 " %-10s %08" PRIx32
                          " %s\n",
                          i, jobs[i].key(),
                          campaignJobStateName(o.state),
                          resultFingerprint(o.result),
                          jobs[i].describe().c_str());
        else
            std::snprintf(line, sizeof line,
                          "%4zu %016" PRIx64 " %-10s %-8s %s\n",
                          i, jobs[i].key(),
                          campaignJobStateName(o.state),
                          o.error_kind.c_str(),
                          jobs[i].describe().c_str());
        out += line;
    }
    return out;
}

std::string
CampaignEngine::shardPath(const std::string &base, int slot)
{
    return base + ".shard" + std::to_string(slot);
}

std::string
CampaignEngine::mergedPath(const std::string &base)
{
    return base + ".merged";
}

void
CampaignEngine::removeJournal(const std::string &base)
{
    for (int slot = 0;; ++slot)
        if (::unlink(shardPath(base, slot).c_str()) != 0)
            break;
    (void)::unlink(mergedPath(base).c_str());
}

CampaignEngine::CampaignEngine(CampaignOptions opts)
    : opts_(std::move(opts))
{
}

} // namespace ckesim

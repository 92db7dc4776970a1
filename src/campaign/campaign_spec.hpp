/**
 * @file
 * Named campaign job lists, shared by the ckesim-campaignd daemon,
 * the bench_perf harness and the tests, so every consumer of "the
 * smoke campaign" means the exact same content-hashed jobs — the
 * precondition for submitting a campaign by name and for
 * fingerprint-compared soaks.
 */

#ifndef CKESIM_CAMPAIGN_CAMPAIGN_SPEC_HPP
#define CKESIM_CAMPAIGN_CAMPAIGN_SPEC_HPP

#include <string>
#include <vector>

#include "metrics/sim_job.hpp"

namespace ckesim {

/** Names accepted by buildNamedCampaign(). */
std::vector<std::string> namedCampaigns();

/**
 * Build the job list of campaign @p name at @p cycles measurement
 * cycles:
 *
 *   "smoke"  a small-config mix of isolated baselines and scheme
 *            families — seconds per job; the kill-soak workhorse.
 *   "pairs"  the paper's representative pairs under the headline
 *            schemes on the full bench machine (heavier).
 *
 * Throws SimError (kind "Config") for an unknown name.
 */
std::vector<SimJob> buildNamedCampaign(const std::string &name,
                                       Cycle cycles);

} // namespace ckesim

#endif // CKESIM_CAMPAIGN_CAMPAIGN_SPEC_HPP

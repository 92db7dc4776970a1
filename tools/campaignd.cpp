/**
 * @file
 * ckesim-campaignd: command-line front end of the fault-tolerant
 * campaign orchestrator. Two modes:
 *
 *  - batch (default): build a named campaign, run it over a forked
 *    worker fleet (or in-process), print a diff-stable result table;
 *  - service (--serve SOCKET): listen on an AF_UNIX socket as a
 *    long-lived daemon, accept concurrent ckesim-campaign-client
 *    submissions, dedupe jobs across campaigns by content hash, and
 *    stream results back (DESIGN.md section 16).
 *
 * Output contract (batch): stdout carries ONLY the table — the
 * shared formatCampaignTable, byte-identical for any worker count,
 * chaos plan or crash/redispatch history that reaches the same
 * terminal states, and byte-identical to the table a service client
 * prints for the same campaign. Fleet accounting goes to stderr.
 * The CI kill-soak leans on this: `campaignd ... > table.txt` then
 * diff.
 *
 * Usage:
 *   ckesim-campaignd [--campaign smoke] [--cycles N] [--workers N]
 *                    [--journal BASE] [--resume] [--in-process]
 *                    [--chaos kill-worker] [--heartbeat-ms N]
 *                    [--liveness-ms N] [--max-attempts N]
 *                    [--poison-deaths N]
 *   ckesim-campaignd --serve SOCKET [--workers N] [--journal BASE]
 *                    [--resume] [--max-pending-jobs N]
 *                    [--max-client-campaigns N] [--idle-timeout-ms N]
 *                    [--chaos kill-worker] [--heartbeat-ms N]
 *                    [--liveness-ms N] [--max-attempts N]
 *                    [--poison-deaths N]
 *
 *   --journal BASE   durable shard journals at BASE.shard<N>
 *   --resume         keep existing journals (default wipes them);
 *                    in service mode this is the SIGKILL-recovery
 *                    path — completed results replay instead of
 *                    re-running
 *   --chaos MODE     inject fleet faults (either mode); kill-worker
 *                    = SIGKILL the worker on every job's first
 *                    dispatch attempt
 *
 * SIGTERM/SIGINT drain either mode: in-flight jobs finish, pending
 * jobs are marked drained, workers shut down cleanly; the service
 * additionally refuses new submissions while draining.
 *
 * Exit codes: 0 = all jobs completed (batch) / clean drain (serve),
 * 1 = failures (failed, poisoned or exhausted jobs), 2 =
 * usage/config error, 3 = drained (batch, with unstarted jobs).
 */

#include <signal.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/campaign_engine.hpp"
#include "campaign/campaign_spec.hpp"
#include "campaign/service.hpp"
#include "metrics/journal.hpp"
#include "sim/check.hpp"

namespace {

using namespace ckesim;

CampaignEngine *g_engine = nullptr;
CampaignService *g_service = nullptr;

void
onDrainSignal(int)
{
    // Both are atomic stores: signal-safe.
    if (g_engine != nullptr)
        g_engine->requestDrain();
    if (g_service != nullptr)
        g_service->requestDrain();
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: ckesim-campaignd [--campaign smoke|pairs] "
        "[--cycles N] [--workers N]\n"
        "                        [--journal BASE] [--resume] "
        "[--in-process]\n"
        "                        [--chaos kill-worker] "
        "[--heartbeat-ms N] [--liveness-ms N]\n"
        "                        [--max-attempts N] "
        "[--poison-deaths N]\n"
        "       ckesim-campaignd --serve SOCKET [--workers N] "
        "[--journal BASE] [--resume]\n"
        "                        [--max-pending-jobs N] "
        "[--max-client-campaigns N]\n"
        "                        [--idle-timeout-ms N] "
        "[--chaos kill-worker] [--heartbeat-ms N]\n"
        "                        [--liveness-ms N] [--max-attempts N] "
        "[--poison-deaths N]\n");
}

bool
parseLong(const char *s, long long &out)
{
    char *end = nullptr;
    out = std::strtoll(s, &end, 10);
    return end != nullptr && *end == '\0' && end != s;
}

/** Validate a campaign name up front so a typo is a usage error
 *  with the accepted names listed, not a late SimError. */
bool
knownCampaign(const std::string &name)
{
    for (const std::string &known : namedCampaigns())
        if (known == name)
            return true;
    std::fprintf(stderr, "unknown campaign '%s' (known:",
                 name.c_str());
    for (const std::string &known : namedCampaigns())
        std::fprintf(stderr, " %s", known.c_str());
    std::fprintf(stderr, ")\n");
    return false;
}

int
runService(const ServiceOptions &opts)
{
    try {
        CampaignService service(opts);
        g_service = &service;
        struct sigaction sa;
        std::memset(&sa, 0, sizeof sa);
        sa.sa_handler = onDrainSignal;
        ::sigaction(SIGTERM, &sa, nullptr);
        ::sigaction(SIGINT, &sa, nullptr);

        const ServiceReport r = service.serve();
        g_service = nullptr;

        std::fprintf(
            stderr,
            "connections=%" PRIu64 " submissions=%" PRIu64
            " rejected=%" PRIu64 " campaigns_done=%" PRIu64 "\n"
            "jobs_completed=%" PRIu64 " jobs_failed=%" PRIu64
            " journal_hits=%" PRIu64 " dedupe_hits=%" PRIu64
            " dispatched=%" PRIu64 " redispatched=%" PRIu64 "\n"
            "client_corrupt=%" PRIu64 " client_disconnects=%" PRIu64
            " worker_deaths=%" PRIu64 " respawned=%" PRIu64
            " hung_killed=%" PRIu64 " corrupt_frames=%" PRIu64
            " pings=%" PRIu64 "%s%s\n",
            r.connections, r.submissions, r.rejected,
            r.campaigns_done, r.jobs_completed, r.jobs_failed,
            r.journal_hits, r.dedupe_hits, r.dispatched,
            r.redispatched, r.client_corrupt, r.client_disconnects,
            r.worker_deaths, r.workers_respawned,
            r.hung_workers_killed, r.corrupt_frames, r.pings,
            r.degraded_in_process ? " degraded_in_process" : "",
            r.drain_requested ? " drain_requested" : "");
        return 0;
    } catch (const SimError &e) {
        std::fprintf(stderr, "campaignd: [%s] %s\n",
                     e.kind().c_str(), e.what());
        return 2;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string campaign = "smoke";
    std::string chaos;
    bool serve = false;
    long long cycles = 20000;
    // Every flag lands here; batch mode copies the fleet half out.
    ServiceOptions sopts;
    bool in_process = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--campaign" && has_value) {
            campaign = argv[++i];
        } else if (arg == "--serve" && has_value) {
            serve = true;
            sopts.socket_path = argv[++i];
        } else if (arg == "--cycles" && has_value) {
            if (!parseLong(argv[++i], cycles) || cycles <= 0) {
                std::fprintf(stderr,
                             "--cycles wants a positive count\n");
                usage();
                return 2;
            }
        } else if (arg == "--workers" && has_value) {
            long long v = 0;
            if (!parseLong(argv[++i], v) || v < 1 || v > 256) {
                std::fprintf(
                    stderr,
                    "--workers wants a count in [1, 256]\n");
                usage();
                return 2;
            }
            sopts.workers = static_cast<int>(v);
        } else if (arg == "--journal" && has_value) {
            sopts.journal_base = argv[++i];
        } else if (arg == "--resume") {
            sopts.resume = true;
        } else if (arg == "--in-process") {
            in_process = true;
        } else if (arg == "--chaos" && has_value) {
            chaos = argv[++i];
        } else if (arg == "--heartbeat-ms" && has_value) {
            long long v = 0;
            if (!parseLong(argv[++i], v) || v < 1) {
                std::fprintf(
                    stderr,
                    "--heartbeat-ms wants a positive count\n");
                usage();
                return 2;
            }
            sopts.heartbeat_ms = static_cast<std::uint64_t>(v);
        } else if (arg == "--liveness-ms" && has_value) {
            long long v = 0;
            if (!parseLong(argv[++i], v) || v < 1) {
                std::fprintf(
                    stderr,
                    "--liveness-ms wants a positive count\n");
                usage();
                return 2;
            }
            sopts.liveness_deadline_ms = static_cast<std::uint64_t>(v);
        } else if (arg == "--max-attempts" && has_value) {
            long long v = 0;
            if (!parseLong(argv[++i], v) || v < 1) {
                std::fprintf(
                    stderr,
                    "--max-attempts wants a positive count\n");
                usage();
                return 2;
            }
            sopts.max_dispatch_attempts = static_cast<int>(v);
        } else if (arg == "--poison-deaths" && has_value) {
            long long v = 0;
            if (!parseLong(argv[++i], v) || v < 1) {
                std::fprintf(
                    stderr,
                    "--poison-deaths wants a positive count\n");
                usage();
                return 2;
            }
            sopts.poison_worker_deaths = static_cast<int>(v);
        } else if (arg == "--max-pending-jobs" && has_value) {
            long long v = 0;
            if (!parseLong(argv[++i], v) || v < 1) {
                std::fprintf(
                    stderr,
                    "--max-pending-jobs wants a positive count\n");
                usage();
                return 2;
            }
            sopts.max_pending_jobs = static_cast<std::size_t>(v);
        } else if (arg == "--max-client-campaigns" && has_value) {
            long long v = 0;
            if (!parseLong(argv[++i], v) || v < 1) {
                std::fprintf(stderr,
                             "--max-client-campaigns wants a "
                             "positive count\n");
                usage();
                return 2;
            }
            sopts.max_client_campaigns =
                static_cast<std::size_t>(v);
        } else if (arg == "--idle-timeout-ms" && has_value) {
            long long v = 0;
            if (!parseLong(argv[++i], v) || v < 0) {
                std::fprintf(stderr,
                             "--idle-timeout-ms wants a count >= 0 "
                             "(0 disables)\n");
                usage();
                return 2;
            }
            sopts.idle_timeout_ms = static_cast<std::uint64_t>(v);
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--campaign" || arg == "--serve" ||
                   arg == "--cycles" || arg == "--workers" ||
                   arg == "--journal" || arg == "--chaos" ||
                   arg == "--heartbeat-ms" ||
                   arg == "--liveness-ms" ||
                   arg == "--max-attempts" ||
                   arg == "--poison-deaths" ||
                   arg == "--max-pending-jobs" ||
                   arg == "--max-client-campaigns" ||
                   arg == "--idle-timeout-ms") {
            std::fprintf(stderr, "missing value for %s\n",
                         arg.c_str());
            usage();
            return 2;
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n",
                         arg.c_str());
            usage();
            return 2;
        }
    }

    if (!chaos.empty()) {
        if (chaos == "kill-worker") {
            // SIGKILL the worker on every job's FIRST dispatch
            // attempt; re-dispatches (attempt >= 1) run clean. The
            // terminal states — and therefore the stdout table —
            // match an unharassed run exactly.
            ProcFaultSpec spec;
            spec.kind = ProcFaultKind::KillWorkerMidJob;
            spec.attempts = 1;
            sopts.faults = ProcFaultPlan({spec});
        } else {
            std::fprintf(stderr,
                         "unknown chaos mode '%s' (try: "
                         "kill-worker)\n",
                         chaos.c_str());
            return 2;
        }
    }

    if (serve)
        return runService(sopts);

    if (!knownCampaign(campaign)) {
        usage();
        return 2;
    }

    if (!sopts.resume && !sopts.journal_base.empty())
        CampaignEngine::removeJournal(sopts.journal_base);

    CampaignOptions opts;
    static_cast<FleetOptions &>(opts) = sopts;
    opts.force_in_process = in_process;

    try {
        const std::vector<SimJob> jobs =
            buildNamedCampaign(campaign, Cycle{
                static_cast<std::uint64_t>(cycles)});

        CampaignEngine engine(opts);
        g_engine = &engine;
        struct sigaction sa;
        std::memset(&sa, 0, sizeof sa);
        sa.sa_handler = onDrainSignal;
        ::sigaction(SIGTERM, &sa, nullptr);
        ::sigaction(SIGINT, &sa, nullptr);

        const CampaignOutcome outcome = engine.run(jobs);
        g_engine = nullptr;

        // ---- diff-stable table (stdout) ----------------------------
        std::fputs(
            formatCampaignTable(campaign,
                                static_cast<std::uint64_t>(cycles),
                                jobs, outcome.jobs)
                .c_str(),
            stdout);

        // ---- fleet accounting (stderr) -----------------------------
        const CampaignReport &r = outcome.report;
        std::fprintf(
            stderr,
            "workers=%d%s completed=%" PRIu64 " journal_hits=%" PRIu64
            " dispatched=%" PRIu64 " redispatched=%" PRIu64 "\n"
            "worker_deaths=%" PRIu64 " respawned=%" PRIu64
            " hung_killed=%" PRIu64 " corrupt_frames=%" PRIu64
            " heartbeats=%" PRIu64 "\n"
            "poisoned=%" PRIu64 " failed=%" PRIu64 " drained=%" PRIu64
            "%s%s\n",
            opts.workers,
            r.degraded_in_process ? " (degraded in-process)" : "",
            r.completed, r.journal_hits, r.dispatched,
            r.redispatched, r.worker_deaths, r.workers_respawned,
            r.hung_workers_killed, r.corrupt_frames, r.heartbeats,
            r.poisoned, r.failed, r.drained,
            r.drain_requested ? " drain_requested" : "",
            outcome.allCompleted() ? " ALL-COMPLETED" : "");

        if (outcome.allCompleted())
            return 0;
        if (r.drain_requested && r.poisoned == 0 && r.failed == 0)
            return 3;
        return 1;
    } catch (const SimError &e) {
        std::fprintf(stderr, "campaignd: [%s] %s\n",
                     e.kind().c_str(), e.what());
        return 2;
    }
}

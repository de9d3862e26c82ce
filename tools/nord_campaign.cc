/**
 * @file
 * nord-campaign: fault-tolerant simulation campaign runner.
 *
 * Expands a (design x workload x rate x faultRate x seed) grid into a
 * crash-resumable work queue, supervises a fleet of forked workers
 * (heartbeats, per-point hang kills, capped jittered retry backoff,
 * poison-point quarantine) and aggregates the results into
 * report.json / report.csv / provenance.json.
 *
 * Every run is one executor of the campaign in --out DIR (DESIGN.md
 * section 5.9). Running the same command in another terminal, or on
 * another machine over a shared filesystem, joins that campaign: work
 * is claimed through per-shard lease files with monotonic fencing
 * tokens, an executor that loses its lease self-fences and exits
 * kExitLeaseLost, and a deterministic merge of the per-executor
 * journals keeps report.json / report.csv byte-identical regardless of
 * fleet membership history. SIGKILL an executor at any moment, rerun
 * the same command line, and it resumes from its journal and its
 * workers' checkpoints to a byte-identical report.
 *
 * Exit codes follow the campaign taxonomy (src/campaign/exit_codes.hh):
 * 0 when every point completed, 10 when any point was quarantined, 11
 * on a bad command line, 12 on orchestration failure, 13 when drained
 * by SIGINT/SIGTERM, 14 when this executor lost a shard lease and
 * self-fenced.
 */

#include <cerrno>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/campaign_point.hh"
#include "campaign/executor.hh"
#include "campaign/exit_codes.hh"
#include "verify/static/config_registry.hh"

namespace {

using namespace nord;
using namespace nord::campaign;

void
usage()
{
    std::printf(
        "usage: nord-campaign --out DIR [grid options] [supervision "
        "options]\n"
        "\n"
        "Runs (or resumes, or joins) a crash-resumable simulation\n"
        "campaign: the grid is expanded into a journaled work queue,\n"
        "each point runs as a supervised, checkpointing worker process,\n"
        "failures retry with capped jittered backoff, and deterministic\n"
        "failures are quarantined as poison with diagnostics. Rerunning\n"
        "the same command resumes and reproduces the report\n"
        "byte-for-byte.\n"
        "\n"
        "grid options:\n"
        "  --designs LIST       comma list of nopg|convpg|convpgopt|nord\n"
        "                       (default nord)\n"
        "  --patterns LIST      comma list of uniform_random|\n"
        "                       bit_complement|transpose|hotspot\n"
        "                       (default uniform_random)\n"
        "  --parsec LIST        comma list of PARSEC benchmark names\n"
        "                       (closed loop; added alongside patterns)\n"
        "  --rates LIST         synthetic injection rates (default 0.10)\n"
        "  --fault-rates LIST   transient fault rates (default 0)\n"
        "  --seeds LIST         simulation seeds (default 1)\n"
        "  --rows R --cols C    mesh shape (default 4x4)\n"
        "  --cycles N           synthetic measurement window (default\n"
        "                       2000)\n"
        "  --min-delivered F    delivery-fraction gate; below it a point\n"
        "                       fails deterministically and quarantines\n"
        "\n"
        "supervision options:\n"
        "  --out DIR            campaign directory: journals, checkpoints\n"
        "                       and reports (required). Run the same\n"
        "                       command in N terminals (or on N machines\n"
        "                       over a shared filesystem) to drain the\n"
        "                       grid cooperatively: work is claimed\n"
        "                       shard-by-shard via lease files with\n"
        "                       fencing tokens, every executor appends to\n"
        "                       its own journal, and a deterministic merge\n"
        "                       yields the same report bytes\n"
        "  --executor-id ID     executor id (default: the hostname; a\n"
        "                       second executor on the same host needs\n"
        "                       its own)\n"
        "  --workers N          concurrent workers (default 2)\n"
        "  --max-failures K     counted failures before quarantine\n"
        "                       (default 3)\n"
        "  --hang-timeout SEC   heartbeat starvation kill (default 30)\n"
        "  --checkpoint-every N worker checkpoint period in cycles\n"
        "                       (default 500)\n"
        "  --backoff-initial S  first retry delay (default 0.25)\n"
        "  --backoff-max S      retry delay cap (default 30)\n"
        "  --lease-grace SEC    observed silence before a lease steal,\n"
        "                       first joiner only (default 2)\n"
        "\n"
        "chaos self-test:\n"
        "  --chaos              kill random workers on a seeded schedule;\n"
        "                       kills are never counted against points,\n"
        "                       so the final report must be byte-identical\n"
        "                       to an undisturbed run's\n"
        "  --chaos-seed N       schedule seed (default 1)\n"
        "  --chaos-interval S   mean seconds between kills (default 0.5)\n"
        "  --chaos-max-kills N  stop killing after N (default unlimited)\n"
        "  --chaos-partition-mean S\n"
        "                       mean seconds between self-partitions:\n"
        "                       SIGSTOP this executor, let its leases\n"
        "                       expire, SIGCONT it and watch it self-fence\n"
        "                       (default off)\n"
        "  --chaos-partition-duration S\n"
        "                       suspension length (default 0)\n"
        "  --chaos-max-partitions N\n"
        "                       stop after N partitions (default 1)\n"
        "  --poison-points LIST point ids forced to fail their gate\n"
        "                       deterministically (quarantine test)\n"
        "  --hang-points LIST   point ids forced to stop heartbeating\n"
        "                       (hang-kill test)\n"
        "\n"
        "  --list               print the expanded grid and exit\n"
        "  --help               this text\n"
        "\n"
        "Numeric values must parse completely; a malformed value, or a\n"
        "non-positive --workers, --max-failures, --hang-timeout,\n"
        "--checkpoint-every or --lease-grace, exits 11 before any\n"
        "directory is created.\n");
}

std::vector<std::string>
splitList(const std::string &arg)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : arg) {
        if (c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

/** Strict unsigned decimal: the whole of @p s, no sign, no overflow. */
bool
parseU64(const std::string &s, std::uint64_t *out)
{
    if (s.empty() || s[0] < '0' || s[0] > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || *end != '\0')
        return false;
    *out = v;
    return true;
}

/** Strict finite double: the whole of @p s must be consumed. */
bool
parseDouble(const std::string &s, double *out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (*end != '\0' || !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

bool
parseU64List(const std::string &arg, std::vector<std::uint64_t> *out)
{
    out->clear();
    for (const std::string &s : splitList(arg)) {
        std::uint64_t v = 0;
        if (!parseU64(s, &v))
            return false;
        out->push_back(v);
    }
    return !out->empty();
}

bool
parseDoubleList(const std::string &arg, std::vector<double> *out)
{
    out->clear();
    for (const std::string &s : splitList(arg)) {
        double v = 0.0;
        if (!parseDouble(s, &v))
            return false;
        out->push_back(v);
    }
    return !out->empty();
}

void
onSignal(int)
{
    requestCampaignDrain();
}

}  // namespace

int
main(int argc, char **argv)
{
    GridSpec grid;
    ExecutorOptions opts;
    std::vector<std::uint64_t> poisonIds;
    std::vector<std::uint64_t> hangIds;
    bool list = false;

    auto needValue = [&](int i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", argv[i]);
            std::exit(kExitBadConfig);
        }
        return argv[i + 1];
    };
    auto badValue = [&](int i) {
        std::fprintf(stderr, "bad value '%s' for %s (--help)\n",
                     argv[i + 1], argv[i]);
        std::exit(kExitBadConfig);
    };
    auto u64Value = [&](int i) -> std::uint64_t {
        std::uint64_t v = 0;
        if (!parseU64(needValue(i), &v))
            badValue(i);
        return v;
    };
    auto intValue = [&](int i) -> int {
        const std::uint64_t v = u64Value(i);
        if (v > static_cast<std::uint64_t>(INT_MAX))
            badValue(i);
        return static_cast<int>(v);
    };
    auto doubleValue = [&](int i) -> double {
        double v = 0.0;
        if (!parseDouble(needValue(i), &v))
            badValue(i);
        return v;
    };
    auto u64ListValue = [&](int i, std::vector<std::uint64_t> *out) {
        if (!parseU64List(needValue(i), out))
            badValue(i);
    };
    auto doubleListValue = [&](int i, std::vector<double> *out) {
        if (!parseDoubleList(needValue(i), out))
            badValue(i);
    };

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else if (a == "--list") {
            list = true;
            continue;
        } else if (a == "--chaos") {
            opts.chaos.enabled = true;
            continue;
        }
        // Every other option takes a value.
        if (a == "--out") {
            opts.outDir = needValue(i);
        } else if (a == "--executor-id") {
            opts.execId = needValue(i);
        } else if (a == "--lease-grace") {
            opts.leaseGraceSec = doubleValue(i);
        } else if (a == "--designs") {
            grid.designs.clear();
            for (const std::string &name : splitList(needValue(i))) {
                PgDesign d = PgDesign::kNord;
                if (!parseDesignName(name, &d)) {
                    std::fprintf(stderr, "unknown design '%s'\n",
                                 name.c_str());
                    return kExitBadConfig;
                }
                grid.designs.push_back(d);
            }
        } else if (a == "--patterns") {
            grid.patterns.clear();
            for (const std::string &name : splitList(needValue(i))) {
                bool found = false;
                for (int p = 0; p <= 3; ++p) {
                    const auto tp = static_cast<TrafficPattern>(p);
                    if (name == trafficPatternName(tp)) {
                        grid.patterns.push_back(tp);
                        found = true;
                    }
                }
                if (!found) {
                    std::fprintf(stderr, "unknown pattern '%s'\n",
                                 name.c_str());
                    return kExitBadConfig;
                }
            }
        } else if (a == "--parsec") {
            grid.parsec = splitList(needValue(i));
        } else if (a == "--rates") {
            doubleListValue(i, &grid.rates);
        } else if (a == "--fault-rates") {
            doubleListValue(i, &grid.faultRates);
        } else if (a == "--seeds") {
            u64ListValue(i, &grid.seeds);
        } else if (a == "--rows") {
            grid.rows = intValue(i);
        } else if (a == "--cols") {
            grid.cols = intValue(i);
        } else if (a == "--cycles") {
            grid.measure = static_cast<Cycle>(u64Value(i));
        } else if (a == "--min-delivered") {
            grid.minDelivered = doubleValue(i);
        } else if (a == "--workers") {
            opts.workers = intValue(i);
        } else if (a == "--max-failures") {
            opts.maxFailures = intValue(i);
        } else if (a == "--hang-timeout") {
            opts.hangTimeoutSec = doubleValue(i);
        } else if (a == "--checkpoint-every") {
            opts.worker.checkpointEvery = static_cast<Cycle>(u64Value(i));
        } else if (a == "--backoff-initial") {
            opts.backoff.initialSec = doubleValue(i);
        } else if (a == "--backoff-max") {
            opts.backoff.maxSec = doubleValue(i);
        } else if (a == "--chaos-seed") {
            opts.chaos.seed = u64Value(i);
        } else if (a == "--chaos-interval") {
            opts.chaos.meanIntervalSec = doubleValue(i);
        } else if (a == "--chaos-max-kills") {
            opts.chaos.maxKills = intValue(i);
        } else if (a == "--chaos-partition-mean") {
            opts.chaos.partitionMeanSec = doubleValue(i);
        } else if (a == "--chaos-partition-duration") {
            opts.chaos.partitionDurationSec = doubleValue(i);
        } else if (a == "--chaos-max-partitions") {
            opts.chaos.maxPartitions = intValue(i);
        } else if (a == "--poison-points") {
            u64ListValue(i, &poisonIds);
        } else if (a == "--hang-points") {
            u64ListValue(i, &hangIds);
        } else {
            std::fprintf(stderr, "unknown option '%s' (--help)\n",
                         a.c_str());
            return kExitBadConfig;
        }
        ++i;
    }

    // Out-of-range values that parse: a zero worker count or hang
    // timeout would silently wedge or quarantine the whole grid.
    const struct
    {
        const char *flag;
        bool ok;
    } ranges[] = {
        {"--workers", opts.workers > 0},
        {"--max-failures", opts.maxFailures > 0},
        {"--hang-timeout", opts.hangTimeoutSec > 0.0},
        {"--checkpoint-every", opts.worker.checkpointEvery > 0},
        {"--lease-grace", opts.leaseGraceSec > 0.0},
    };
    for (const auto &r : ranges) {
        if (!r.ok) {
            std::fprintf(stderr, "%s is out of range (--help)\n", r.flag);
            return kExitBadConfig;
        }
    }

    std::vector<PointSpec> specs = expandGrid(grid);
    for (std::uint64_t id : poisonIds) {
        if (id < specs.size())
            specs[id].selfTest = SelfTest::kPoison;
    }
    for (std::uint64_t id : hangIds) {
        if (id < specs.size())
            specs[id].selfTest = SelfTest::kHang;
    }

    if (list) {
        for (const PointSpec &spec : specs)
            std::printf("%s\n", specJson(spec).c_str());
        return 0;
    }
    if (opts.outDir.empty()) {
        std::fprintf(stderr, "--out DIR is required (--help)\n");
        return kExitBadConfig;
    }
    if (specs.empty()) {
        std::fprintf(stderr, "the grid is empty\n");
        return kExitBadConfig;
    }

    // An unbounded chaos schedule that fires faster than the hang
    // timeout livelocks any hang point: the chaos kill always lands
    // before the heartbeat timeout, is never counted, and the point
    // relaunches forever. Warn rather than refuse -- grids without hang
    // points are fine -- but make the trap visible up front.
    if (opts.chaos.enabled && opts.chaos.maxKills == 0 &&
        opts.chaos.meanIntervalSec < opts.hangTimeoutSec) {
        std::fprintf(stderr,
                     "warning: --chaos-interval (%.3gs) is below "
                     "--hang-timeout (%.3gs) with no --chaos-max-kills; "
                     "hang points can be killed forever without ever "
                     "being counted\n",
                     opts.chaos.meanIntervalSec, opts.hangTimeoutSec);
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    ExecutorOutcome out;
    std::string err;
    if (!runExecutor(specs, opts, &out, &err)) {
        std::fprintf(stderr, "campaign failed: %s\n", err.c_str());
        return kExitInfraFailure;
    }
    std::printf("nord-campaign[%s]: completed %llu, quarantined %llu, "
                "missing %llu (launched %llu, %llu chaos kill(s), %llu "
                "partition(s), %llu stale commit(s) dropped)\n",
                out.execId.c_str(),
                static_cast<unsigned long long>(out.completed),
                static_cast<unsigned long long>(out.quarantined),
                static_cast<unsigned long long>(out.missing),
                static_cast<unsigned long long>(out.launches),
                static_cast<unsigned long long>(out.chaosKills),
                static_cast<unsigned long long>(out.partitions),
                static_cast<unsigned long long>(out.staleDropped));
    if (out.fenced) {
        std::fprintf(stderr,
                     "nord-campaign[%s]: lease lost (%s); the shard is "
                     "retried by its new owner\n",
                     out.execId.c_str(), out.fenceReason.c_str());
        return kExitLeaseLost;
    }
    if (out.interrupted) {
        std::printf("nord-campaign: drained by signal; rerun the same "
                    "command to resume\n");
        return kExitInterrupted;
    }
    if (out.wroteReports)
        std::printf("nord-campaign: report %s\n", out.reportJson.c_str());
    return out.quarantined > 0 ? kExitGateFailure : kExitOk;
}

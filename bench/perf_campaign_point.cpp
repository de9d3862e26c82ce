/**
 * @file
 * Full-stack campaign-point benchmark -> BENCH_campaign.json.
 *
 * One representative resilience-campaign point: an 8x8 NoRD mesh at
 * moderate load with the fault injector, E2E retransmission and the
 * periodic auditor all enabled, plus one checkpoint save+load in the
 * middle -- i.e. everything a real campaign executor pays per point.
 * This is the end-to-end number the perf gate watches: a regression
 * anywhere in the stack (kernel walk, flit storage, fault hooks,
 * audit sweeps, serialization) lands here.
 *
 * It also times one cold NoRD NocSystem construction at 8x8 and at
 * 12x12 (criticality cache cleared first), i.e. the criticality sweep
 * plus the steering table and network build a fresh process pays.
 */

#include "perf_util.hh"

#include <cstdio>
#include <string>

#include "network/noc_system.hh"
#include "topology/criticality.hh"
#include "traffic/synthetic_traffic.hh"

namespace nord {
namespace {

/** Run one campaign point; returns flits injected. */
std::uint64_t
campaignPoint(Cycle cycles, const std::string &ckptPath)
{
    NocConfig cfg;
    cfg.rows = 8;
    cfg.cols = 8;
    cfg.design = PgDesign::kNord;
    cfg.fault.enabled = true;
    cfg.fault.e2e = true;
    cfg.fault.flitCorruptRate = 1e-4;
    cfg.fault.flitDropRate = 1e-4;
    cfg.fault.creditLeakRate = 5e-5;
    cfg.verify.interval = 64;
    cfg.verify.policy = AuditPolicy::kRecover;
    NocSystem sys(cfg);
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.06, 13);
    sys.setWorkload(&traffic);
    sys.run(cycles / 2);
    std::string err;
    if (!sys.saveCheckpoint(ckptPath, {}, &err) ||
        !sys.loadCheckpoint(ckptPath, nullptr, &err)) {
        std::fprintf(stderr, "checkpoint roundtrip failed: %s\n",
                     err.c_str());
    }
    sys.run(cycles - cycles / 2);
    return sys.stats().flitsInjected();
}

/** Build one NoRD network from a cold criticality cache. */
void
constructColdNord(int rows, int cols)
{
    NocConfig cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    cfg.design = PgDesign::kNord;
    CriticalityCache::instance().clear();
    NocSystem sys(cfg);
}

}  // namespace
}  // namespace nord

int
main()
{
    using namespace nord;
    using namespace nord::perf;

    const Cycle cycles = quickMode() ? 4'000 : 16'000;
    const std::string ckpt = outPath("BENCH_campaign_point.ckpt");

    JsonReport report("campaign");

    std::uint64_t flits = 0;
    const Sample s =
        measureSteady([&] { flits = campaignPoint(cycles, ckpt); });
    report.addThroughput("campaign_point", s,
                         static_cast<double>(cycles),
                         static_cast<double>(flits));

    // Constructions per second (higher is better, like every *_per_sec
    // metric). A cold 12x12 construction takes about a second, so cap
    // its repetitions.
    for (int size : {8, 12}) {
        RepeatOptions opts;
        if (size > 8)
            opts.maxReps = opts.minReps;
        const Sample c =
            measureSteady([&] { constructColdNord(size, size); }, opts);
        const std::string shape =
            std::to_string(size) + "x" + std::to_string(size);
        report.add("construct_nord_" + shape + "_per_sec", 1.0 / c.seconds);
    }

    std::remove(ckpt.c_str());
    return report.write(outPath("BENCH_campaign.json")) ? 0 : 1;
}

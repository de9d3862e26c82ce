/**
 * @file
 * Simulator microbenchmarks (google-benchmark): cycles/second of the
 * network model itself under each design, plus the off-line criticality
 * analysis. Useful for tracking simulator performance regressions; not a
 * paper figure.
 */

#include <benchmark/benchmark.h>

#include "network/noc_system.hh"
#include "topology/criticality.hh"
#include "traffic/synthetic_traffic.hh"

namespace {

void
BM_SimulateDesign(benchmark::State &state)
{
    using namespace nord;
    NocConfig cfg;
    cfg.design = static_cast<PgDesign>(state.range(0));
    NocSystem sys(cfg);
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.05, 9);
    sys.setWorkload(&traffic);
    for (auto _ : state)
        sys.run(1000);
    state.SetItemsProcessed(state.iterations() * 1000);
}

void
BM_CriticalityAnalyze(benchmark::State &state)
{
    using namespace nord;
    MeshTopology mesh(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(0)));
    BypassRing ring(mesh);
    CriticalityAnalyzer analyzer(mesh, ring);
    std::vector<bool> on(static_cast<size_t>(mesh.numNodes()), false);
    for (int i = 0; i < mesh.numNodes(); i += 2)
        on[i] = true;
    for (auto _ : state)
        benchmark::DoNotOptimize(analyzer.analyze(on));
}

}  // namespace

BENCHMARK(BM_SimulateDesign)
    ->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CriticalityAnalyze)->Arg(4)->Arg(8);

BENCHMARK_MAIN();

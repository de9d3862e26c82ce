/**
 * @file
 * Router-criticality analysis: two-queue Dijkstra from the powered-on
 * routers, ring-chain compression for the gated-off ones.
 */

#include "topology/criticality.hh"

#include <algorithm>
#include <limits>

#include "common/log.hh"

namespace nord {

namespace {

constexpr std::uint64_t kUnreached =
    std::numeric_limits<std::uint64_t>::max();

/** Largest mesh whose packed row sums stay exact (see Cost). */
constexpr int kMaxNodes = 1 << 14;

/** Packed cost of one hop entering a router of @p cycles latency. */
constexpr std::uint64_t
hopCost(int cycles)
{
    return (static_cast<std::uint64_t>(cycles) << 32) | 1u;
}

constexpr std::int64_t
cyclesOf(std::uint64_t cost)
{
    return static_cast<std::int64_t>(cost >> 32);
}

constexpr std::int64_t
hopsOf(std::uint64_t cost)
{
    return static_cast<std::int64_t>(cost & 0xffffffffu);
}

}  // namespace

CriticalityAnalyzer::CriticalityAnalyzer(const MeshTopology &mesh,
                                         const BypassRing &ring,
                                         int onRouterHopCycles,
                                         int offRouterHopCycles)
    : mesh_(mesh),
      onHopCycles_(onRouterHopCycles),
      offHopCycles_(offRouterHopCycles),
      links_(static_cast<size_t>(mesh.numNodes()))
{
    NORD_ASSERT(mesh.numNodes() <= kMaxNodes,
                "criticality analysis supports at most %d routers",
                kMaxNodes);
    for (NodeId x = 0; x < mesh.numNodes(); ++x) {
        for (int d = 0; d < kNumMeshDirs; ++d)
            links_[x].mesh[d] = mesh.neighbor(x, indexDir(d));
        links_[x].succ = ring.successor(x);
        links_[x].pred = ring.predecessor(x);
    }
}

CriticalityAnalyzer::Scratch::Scratch(int n)
    : cost(static_cast<size_t>(n)), queueOn(static_cast<size_t>(n)),
      queueOff(static_cast<size_t>(n))
{
}

CriticalityAnalyzer::Cost
CriticalityAnalyzer::search(NodeId src, const std::vector<std::uint8_t> &on,
                            Scratch &s) const
{
    // Edge x -> y exists when x can hand a flit to y. Cost is charged for
    // traversing y (the hop's pipeline) -- consistent for whole paths since
    // the source NI injects directly into x's pipeline. Because the cost
    // depends only on y, each queue receives costs in the order routers
    // are settled, so both stay sorted and every router is settled at its
    // first discovery. Raw pointers keep unoptimized builds usable.
    const Cost onStep = hopCost(onHopCycles_);
    const Cost offStep = hopCost(offHopCycles_);
    const std::uint8_t *isOn = on.data();
    const Links *links = links_.data();
    Cost *cost = s.cost.data();
    NodeId *queueOn = s.queueOn.data();
    NodeId *queueOff = s.queueOff.data();
    std::fill(s.cost.begin(), s.cost.end(), kUnreached);
    cost[src] = 0;
    std::size_t onHead = 0, onTail = 0, offHead = 0, offTail = 0;
    int settled = 0;
    Cost rowSum = 0;
    for (NodeId x = src;;) {
        ++settled;
        const Cost cx = cost[x];
        rowSum += cx;
        const Links &l = links[x];
        if (isOn[x]) {
            // Into an on router: always allowed. Into an off router: only
            // via its Bypass Inport (we must be its ring predecessor).
            for (NodeId y : l.mesh) {
                if (y == kInvalidNode || cost[y] != kUnreached)
                    continue;
                if (isOn[y]) {
                    cost[y] = cx + onStep;
                    queueOn[onTail++] = y;
                } else if (links[y].pred == x) {
                    cost[y] = cx + offStep;
                    queueOff[offTail++] = y;
                }
            }
        } else if (cost[l.succ] == kUnreached) {
            // Gated-off: only the ring edge out of the NI bypass.
            const NodeId y = l.succ;
            if (isOn[y]) {
                cost[y] = cx + onStep;
                queueOn[onTail++] = y;
            } else {
                cost[y] = cx + offStep;
                queueOff[offTail++] = y;
            }
        }
        const bool haveOn = onHead < onTail;
        const bool haveOff = offHead < offTail;
        if (haveOn &&
            (!haveOff || cost[queueOn[onHead]] <= cost[queueOff[offHead]]))
            x = queueOn[onHead++];
        else if (haveOff)
            x = queueOff[offHead++];
        else
            break;
    }
    NORD_ASSERT(settled == mesh_.numNodes(),
                "network disconnected: %d of %d routers reachable from %d",
                settled, mesh_.numNodes(), src);
    return rowSum;
}

CriticalityAnalyzer::PathSums
CriticalityAnalyzer::pathSums(const std::vector<std::uint8_t> &on,
                              Scratch &s) const
{
    const int n = mesh_.numNodes();
    const Cost onStep = hopCost(onHopCycles_);
    const Cost offStep = hopCost(offHopCycles_);
    PathSums sums;
    auto add = [&sums](Cost row) {
        sums.hops += hopsOf(row);
        sums.cycles += cyclesOf(row);
    };

    bool anyOn = false;
    for (NodeId u = 0; u < n; ++u) {
        if (!on[u])
            continue;
        anyOn = true;
        const Cost row = search(u, on, s);
        add(row);

        // The off routers whose forced ring chain ends at u, nearest
        // first. The m-th one reaches the chain routers ahead of it after
        // t = 1..m-1 bypass hops, u after the prefix entry = (m-1) bypass
        // hops + u's pipeline, and every other router j in entry +
        // cost(u, j). chainSum holds cost(u, .) of the m chain routers.
        Cost ahead = 0;
        Cost entry = onStep;
        Cost chainSum = 0;
        NodeId c = links_[u].pred;
        for (Cost m = 1; !on[c]; ++m) {
            chainSum += s.cost[c];
            add(ahead + (static_cast<Cost>(n) - m) * entry + row - chainSum);
            ahead += m * offStep;
            entry += offStep;
            c = links_[c].pred;
        }
    }
    if (!anyOn) {
        // The ring alone: every source reaches the others after
        // t = 1..n-1 bypass hops.
        const std::int64_t perSource =
            static_cast<std::int64_t>(n) * (n - 1) / 2;
        sums.hops = n * perSource;
        sums.cycles = sums.hops * offHopCycles_;
    }
    return sums;
}

CriticalityPoint
CriticalityAnalyzer::point(const std::vector<std::uint8_t> &on,
                           const PathSums &sums) const
{
    const int n = mesh_.numNodes();
    CriticalityPoint pt;
    for (NodeId x = 0; x < n; ++x) {
        if (on[x])
            pt.poweredOn.push_back(x);
    }
    pt.numPoweredOn = static_cast<int>(pt.poweredOn.size());
    const int pairs = n * (n - 1);
    pt.avgDistanceHops = static_cast<double>(sums.hops) / pairs;
    pt.avgPerHopLatency = static_cast<double>(sums.cycles) /
                          static_cast<double>(sums.hops);
    return pt;
}

std::vector<std::uint8_t>
CriticalityAnalyzer::toBytes(const std::vector<bool> &on) const
{
    NORD_ASSERT(static_cast<int>(on.size()) == mesh_.numNodes(),
                "poweredOn size %zu != %d", on.size(), mesh_.numNodes());
    return {on.begin(), on.end()};
}

std::vector<double>
CriticalityAnalyzer::distanceMatrixCycles(
    const std::vector<bool> &poweredOn) const
{
    const int n = mesh_.numNodes();
    const std::vector<std::uint8_t> on = toBytes(poweredOn);
    Scratch s(n);
    std::vector<double> cycles(static_cast<size_t>(n) * n);
    for (NodeId i = 0; i < n; ++i) {
        search(i, on, s);
        for (NodeId j = 0; j < n; ++j) {
            cycles[static_cast<size_t>(i) * n + j] =
                static_cast<double>(cyclesOf(s.cost[j]));
        }
    }
    return cycles;
}

CriticalityPoint
CriticalityAnalyzer::analyze(const std::vector<bool> &poweredOn) const
{
    const std::vector<std::uint8_t> on = toBytes(poweredOn);
    Scratch s(mesh_.numNodes());
    return point(on, pathSums(on, s));
}

std::vector<CriticalityPoint>
CriticalityAnalyzer::greedySweep() const
{
    const int n = mesh_.numNodes();
    std::vector<std::uint8_t> on(static_cast<size_t>(n), 0);
    Scratch s(n);
    std::vector<CriticalityPoint> sweep;
    sweep.reserve(static_cast<size_t>(n) + 1);
    sweep.push_back(point(on, pathSums(on, s)));

    // Averages share the denominators n*(n-1) and the hop sum, so the
    // integer sums order candidates exactly as the averages do: fewer
    // hops, then fewer cycles, then the lowest node id.
    for (int k = 1; k <= n; ++k) {
        NodeId best = kInvalidNode;
        PathSums bestSums;
        for (NodeId cand = 0; cand < n; ++cand) {
            if (on[cand])
                continue;
            on[cand] = 1;
            const PathSums sums = pathSums(on, s);
            on[cand] = 0;
            if (best == kInvalidNode || sums.hops < bestSums.hops ||
                (sums.hops == bestSums.hops &&
                 sums.cycles < bestSums.cycles)) {
                best = cand;
                bestSums = sums;
            }
        }
        NORD_ASSERT(best != kInvalidNode,
                    "greedy sweep found no candidate at k=%d", k);
        on[best] = 1;
        sweep.push_back(point(on, bestSums));
    }
    return sweep;
}

int
CriticalityAnalyzer::kneePoint(const std::vector<CriticalityPoint> &sweep,
                               double slackHops)
{
    NORD_ASSERT(!sweep.empty(), "empty sweep");
    // Diminishing-returns knee: the smallest k after which no single
    // additional router improves the average distance by slackHops or
    // more. For the paper's 4x4 mesh this lands at 6 routers (Fig. 6).
    for (size_t k = 0; k + 1 < sweep.size(); ++k) {
        bool flat = true;
        for (size_t j = k; j + 1 < sweep.size(); ++j) {
            if (sweep[j].avgDistanceHops - sweep[j + 1].avgDistanceHops >=
                slackHops) {
                flat = false;
                break;
            }
        }
        if (flat)
            return static_cast<int>(k);
    }
    return static_cast<int>(sweep.size()) - 1;
}

CriticalityCache &
CriticalityCache::instance()
{
    // The one whitelisted mutable static in the library: a named,
    // mutex-guarded cache (see nord-lint's whitelist).
    static CriticalityCache cache;
    return cache;
}

const CriticalityCache::ShapeSweep &
CriticalityCache::sweepFor(const MeshTopology &mesh, const BypassRing &ring)
{
    auto key = std::make_pair(mesh.rows(), mesh.cols());
    auto it = sweeps_.find(key);
    if (it == sweeps_.end()) {
        ShapeSweep entry;
        entry.points = CriticalityAnalyzer(mesh, ring).greedySweep();
        entry.knee = CriticalityAnalyzer::kneePoint(entry.points);
        it = sweeps_.emplace(key, std::move(entry)).first;
    }
    return it->second;
}

int
CriticalityCache::knee(const MeshTopology &mesh, const BypassRing &ring)
{
    std::lock_guard<std::mutex> lock(mu_);
    return sweepFor(mesh, ring).knee;
}

const std::vector<NodeId> &
CriticalityCache::perfSet(const MeshTopology &mesh, const BypassRing &ring,
                          int count)
{
    NORD_ASSERT(count >= 0 && count <= mesh.numNodes(),
                "bad performance-centric count %d", count);
    std::lock_guard<std::mutex> lock(mu_);
    return sweepFor(mesh, ring).points[count].poweredOn;
}

const std::vector<double> &
CriticalityCache::steering(const MeshTopology &mesh, const BypassRing &ring,
                           const std::vector<NodeId> &perf)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto key = std::make_tuple(mesh.rows(), mesh.cols(),
                               static_cast<int>(perf.size()));
    auto it = steering_.find(key);
    if (it == steering_.end()) {
        CriticalityAnalyzer analyzer(mesh, ring);
        std::vector<bool> on(static_cast<size_t>(mesh.numNodes()), false);
        for (NodeId r : perf)
            on[r] = true;
        it = steering_.emplace(key,
                               analyzer.distanceMatrixCycles(on)).first;
    }
    return it->second;
}

void
CriticalityCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    sweeps_.clear();
    steering_.clear();
}

std::size_t
CriticalityCache::entries() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return sweeps_.size() + steering_.size();
}

}  // namespace nord

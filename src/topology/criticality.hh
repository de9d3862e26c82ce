/**
 * @file
 * Off-line router-criticality analysis (Section 4.4 / Figure 6).
 *
 * The paper selects performance-centric routers with "a short off-line
 * program based on the Floyd-Warshall all-pair shortest path algorithm".
 * Given a set of powered-on routers, the reachability graph is:
 *
 *  - a powered-off router X contributes only its ring edge
 *    X -> ringSuccessor(X) (traffic traverses X through the NI bypass);
 *  - a powered-on router X contributes edges to every mesh neighbor Y that
 *    is powered on, plus the edge to Y when X is Y's ring predecessor
 *    (the only way into a gated-off router is its Bypass Inport).
 *
 * Hop costs model latency: a hop into a powered-on router costs the full
 * pipeline (4 stages + LT), a hop into a gated-off router costs the bypass
 * pipeline (2 stages + LT).
 *
 * We compute the same all-pairs shortest paths without Floyd-Warshall,
 * using two properties of that graph:
 *
 *  - a hop's cost depends only on the router it enters, so Dijkstra needs
 *    no heap: two FIFO queues, one per entry cost, popped smaller front
 *    first, settle every router on its first discovery -- O(n) per source;
 *  - a gated-off router has one out-edge (to its ring successor) and one
 *    in-edge (from its ring predecessor), so an off source walks a forced
 *    ring chain to the next powered-on router u and then follows u's
 *    shortest paths. Walking each chain backwards from u with running
 *    prefix sums gives every off source's distance sums in O(1).
 *
 * One powered-on set of k routers thus costs O(k*n) instead of O(n^3),
 * and the cycle matrix is exactly Floyd-Warshall's. Paths are ranked by
 * cycles, then by hops, so hop counts are the fewest hops among the
 * cheapest-in-cycles paths. Floyd-Warshall keeps whichever cheapest path
 * its relaxation order meets first, which can have more hops on some
 * power sets; on every greedy-sweep point of the even-row meshes up to
 * 12x12 the two agree (tests/test_criticality.cc), so the knee and the
 * performance-centric sets are the paper program's.
 */

#ifndef NORD_TOPOLOGY_CRITICALITY_HH
#define NORD_TOPOLOGY_CRITICALITY_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "common/state_annotations.hh"
#include "common/types.hh"
#include "topology/bypass_ring.hh"
#include "topology/mesh.hh"

namespace nord {

/** Result of analyzing one powered-on set. */
struct CriticalityPoint
{
    int numPoweredOn = 0;
    double avgDistanceHops = 0.0;   ///< mean node-to-node distance (hops)
    double avgPerHopLatency = 0.0;  ///< mean per-hop latency (cycles)
    std::vector<NodeId> poweredOn;  ///< the router set analyzed (ascending)
};

/**
 * Analyzer producing Figure 6 and the performance-centric router set.
 */
class CriticalityAnalyzer
{
  public:
    /**
     * @param mesh the mesh topology
     * @param ring the bypass ring over that mesh
     * @param onRouterHopCycles per-hop latency through a powered-on router
     *        (default 5: 4-stage pipeline + LT)
     * @param offRouterHopCycles per-hop latency through a bypassed router
     *        (default 3: 2-cycle bypass + LT)
     */
    CriticalityAnalyzer(const MeshTopology &mesh, const BypassRing &ring,
                        int onRouterHopCycles = 5,
                        int offRouterHopCycles = 3);

    /**
     * Average node-to-node distance (hops) and per-hop latency for a given
     * powered-on set, over cheapest-in-cycles paths of the mixed graph.
     */
    CriticalityPoint analyze(const std::vector<bool> &poweredOn) const;

    /**
     * All-pairs shortest distances in cycles over the mixed graph
     * (row-major n*n). Used as the static steering table for NoRD's
     * adaptive routing: entry [i*n+j] is the cost from i to j assuming
     * exactly @p poweredOn routers are on.
     */
    std::vector<double>
    distanceMatrixCycles(const std::vector<bool> &poweredOn) const;

    /**
     * Greedy sweep: starting from all routers off, repeatedly power on the
     * router that minimizes average node-to-node distance (per-hop latency,
     * then the lowest node id, as tie-breaks). Returns numNodes()+1 points
     * (k = 0 .. numNodes); point k's poweredOn is the performance-centric
     * set of size k.
     */
    std::vector<CriticalityPoint> greedySweep() const;

    /**
     * Pick a knee point from a greedy sweep: the smallest k after which
     * no single additional router reduces the average distance by
     * @p slackHops or more (diminishing returns). The paper's 4x4
     * example lands at k = 6.
     */
    static int kneePoint(const std::vector<CriticalityPoint> &sweep,
                         double slackHops = 0.5);

  private:
    /**
     * A path cost packed as (cycles << 32 | hops): integer order is the
     * (cycles, hops) lexicographic order, and sums of one source's row
     * stay packed without carries.
     */
    using Cost = std::uint64_t;

    /** Integer distance sums over all ordered pairs i != j. */
    struct PathSums
    {
        std::int64_t hops = 0;
        std::int64_t cycles = 0;
    };

    /**
     * A router's mesh neighbors (kInvalidNode off the edge) and ring
     * neighbors, copied out of the topology for the search loop.
     */
    struct Links
    {
        std::array<NodeId, kNumMeshDirs> mesh;
        NodeId succ;
        NodeId pred;
    };

    /** Buffers for one search, sized once and reused by every search. */
    struct Scratch
    {
        explicit Scratch(int n);
        std::vector<Cost> cost;        ///< the last search's row
        std::vector<NodeId> queueOn;   ///< FIFO of powered-on entries
        std::vector<NodeId> queueOff;  ///< FIFO of gated-off entries
    };

    /**
     * Shortest costs from @p src to every router into @p s.cost; returns
     * their packed sum.
     */
    Cost search(NodeId src, const std::vector<std::uint8_t> &on,
                Scratch &s) const;

    /** Distance sums of one powered-on set (chain-compressed). */
    PathSums pathSums(const std::vector<std::uint8_t> &on,
                      Scratch &s) const;

    /** The Figure 6 point of @p on, whose sums are @p sums. */
    CriticalityPoint point(const std::vector<std::uint8_t> &on,
                           const PathSums &sums) const;

    /** @p on as one byte per router, checked against the mesh size. */
    std::vector<std::uint8_t> toBytes(const std::vector<bool> &on) const;

    const MeshTopology &mesh_;
    int onHopCycles_;
    int offHopCycles_;
    std::vector<Links> links_;  ///< per router, indexed by NodeId
};

/**
 * Process-wide cache of criticality-analysis results, keyed by mesh
 * shape. The greedy sweep is deterministic per shape, so benches and
 * tests that construct many NocSystems share one computation: each shape
 * runs the sweep once, and its knee and every performance-centric set
 * are read from that one entry.
 *
 * This replaces the anonymous function-local `static std::map` caches
 * that used to live in noc_system.cc and cdg.cc: those were unsynchronized
 * mutable statics -- data races the moment two NocSystems are built on two
 * threads (see tests/test_concurrency.cc). The cache is the one piece of
 * deliberately shared mutable state in the library; it is mutex-guarded
 * and carries a nord-lint whitelist entry telling its story.
 *
 * Returned references stay valid for the process lifetime (std::map nodes
 * are stable, entries are never erased except by clear(), which is a
 * test-only hook callers must not race with lookups).
 */
class CriticalityCache
{
  public:
    /** The process-wide instance. */
    static CriticalityCache &instance();

    /** Knee point of the greedy sweep for @p mesh's shape. */
    int knee(const MeshTopology &mesh, const BypassRing &ring);

    /**
     * Performance-centric router set of size @p count (ascending): the
     * first @p count routers the greedy sweep powers on.
     */
    const std::vector<NodeId> &perfSet(const MeshTopology &mesh,
                                       const BypassRing &ring, int count);

    /** NoRD steering table for a performance-centric set. */
    const std::vector<double> &steering(const MeshTopology &mesh,
                                        const BypassRing &ring,
                                        const std::vector<NodeId> &perf);

    /** Drop every cached entry (tests only; forces recomputation). */
    void clear();

    /** Cached entries across all tables (tests). */
    std::size_t entries() const;

  private:
    CriticalityCache() = default;

    /** One mesh shape's greedy sweep and its knee. */
    struct ShapeSweep
    {
        std::vector<CriticalityPoint> points;
        int knee = 0;
    };

    /** The sweep for @p mesh's shape, run on miss; caller holds mu_. */
    const ShapeSweep &sweepFor(const MeshTopology &mesh,
                               const BypassRing &ring);

    NORD_STATE_EXCLUDE(config, "synchronization primitive, not state")
    mutable std::mutex mu_;
    NORD_STATE_EXCLUDE(cache, "memoized sweeps and knees; recomputed on miss")
    std::map<std::pair<int, int>, ShapeSweep> sweeps_;
    NORD_STATE_EXCLUDE(cache, "memoized steering weights; recomputed on miss")
    std::map<std::tuple<int, int, int>, std::vector<double>> steering_;
};

}  // namespace nord

#endif  // NORD_TOPOLOGY_CRITICALITY_HH

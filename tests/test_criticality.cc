/**
 * @file
 * Tests for the router-criticality analysis (Figure 6): closed forms, a
 * Floyd-Warshall oracle (the paper's off-line program) on random power
 * sets, and a golden table of every greedy sweep on the even-row meshes
 * 2..12 x 2..12, recorded from the Floyd-Warshall implementation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "topology/criticality.hh"

namespace nord {
namespace {

class CriticalityTest : public ::testing::Test
{
  protected:
    CriticalityTest() : mesh(4, 4), ring(mesh), analyzer(mesh, ring) {}

    MeshTopology mesh;
    BypassRing ring;
    CriticalityAnalyzer analyzer;
};

TEST_F(CriticalityTest, AllOnMatchesMeshAverage)
{
    std::vector<bool> on(16, true);
    CriticalityPoint pt = analyzer.analyze(on);
    // Average pairwise Manhattan distance of a 4x4 mesh is 8/3.
    EXPECT_NEAR(pt.avgDistanceHops, 8.0 / 3.0, 1e-9);
    EXPECT_NEAR(pt.avgPerHopLatency, 5.0, 1e-9);
}

TEST_F(CriticalityTest, AllOffIsTheRing)
{
    std::vector<bool> off(16, false);
    CriticalityPoint pt = analyzer.analyze(off);
    // Unidirectional 16-ring: mean forward distance = (1+...+15)/15 = 8.
    EXPECT_NEAR(pt.avgDistanceHops, 8.0, 1e-9);
    EXPECT_NEAR(pt.avgPerHopLatency, 3.0, 1e-9);
}

TEST_F(CriticalityTest, GreedySweepShape)
{
    auto sweep = analyzer.greedySweep();
    ASSERT_EQ(sweep.size(), 17u);
    // Distance is non-increasing in k; per-hop latency rises overall.
    for (size_t k = 1; k < sweep.size(); ++k) {
        EXPECT_LE(sweep[k].avgDistanceHops,
                  sweep[k - 1].avgDistanceHops + 1e-9);
        EXPECT_EQ(sweep[k].numPoweredOn, static_cast<int>(k));
    }
    EXPECT_LT(sweep.front().avgPerHopLatency,
              sweep.back().avgPerHopLatency);
}

TEST_F(CriticalityTest, KneeMatchesPaper)
{
    // The paper's 4x4 example designates six performance-centric routers.
    auto sweep = analyzer.greedySweep();
    EXPECT_EQ(CriticalityAnalyzer::kneePoint(sweep), 6);
}

TEST_F(CriticalityTest, PerformanceCentricSetSizeAndValidity)
{
    const std::vector<NodeId> set = analyzer.greedySweep()[6].poweredOn;
    EXPECT_EQ(set.size(), 6u);
    for (NodeId r : set) {
        EXPECT_GE(r, 0);
        EXPECT_LT(r, 16);
    }
    // Sorted and unique.
    for (size_t i = 1; i < set.size(); ++i)
        EXPECT_LT(set[i - 1], set[i]);
}

TEST_F(CriticalityTest, DistanceMatrixProperties)
{
    std::vector<bool> on(16, false);
    on[5] = on[6] = on[9] = on[10] = true;  // center on
    auto m = analyzer.distanceMatrixCycles(on);
    ASSERT_EQ(m.size(), 256u);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(m[i * 16 + i], 0.0);
        for (int j = 0; j < 16; ++j) {
            if (i != j) {
                EXPECT_GT(m[i * 16 + j], 0.0);
                EXPECT_LT(m[i * 16 + j], 16.0 * 5.0);
            }
        }
    }
    // Triangle inequality.
    for (int i = 0; i < 16; ++i) {
        for (int j = 0; j < 16; ++j) {
            for (int k = 0; k < 16; ++k) {
                EXPECT_LE(m[i * 16 + j],
                          m[i * 16 + k] + m[k * 16 + j] + 1e-9);
            }
        }
    }
}

TEST_F(CriticalityTest, SinglePoweredOnRouterStillConnected)
{
    for (NodeId r = 0; r < 16; ++r) {
        std::vector<bool> on(16, false);
        on[r] = true;
        CriticalityPoint pt = analyzer.analyze(on);  // panics if split
        EXPECT_GT(pt.avgDistanceHops, 0.0);
    }
}

TEST(CriticalityLarge, EightByEightRingDistance)
{
    MeshTopology mesh(8, 8);
    BypassRing ring(mesh);
    CriticalityAnalyzer analyzer(mesh, ring);
    std::vector<bool> off(64, false);
    CriticalityPoint pt = analyzer.analyze(off);
    // 64-ring: mean forward distance = 65*64/2/63... = sum(1..63)/63 = 32.
    EXPECT_NEAR(pt.avgDistanceHops, 32.0, 1e-9);
}

TEST(CriticalityEdge, TwoByTwoMesh)
{
    // The smallest legal mesh: the ring is the mesh's outer face, and the
    // analysis endpoints have closed forms.
    MeshTopology mesh(2, 2);
    BypassRing ring(mesh);
    CriticalityAnalyzer analyzer(mesh, ring);

    std::vector<bool> on(4, true);
    // Ordered pairwise Manhattan distances: 8x1 + 4x2 over 12 pairs.
    EXPECT_NEAR(analyzer.analyze(on).avgDistanceHops, 4.0 / 3.0, 1e-9);

    std::vector<bool> off(4, false);
    // 4-ring: mean forward distance = (1+2+3)/3 = 2.
    EXPECT_NEAR(analyzer.analyze(off).avgDistanceHops, 2.0, 1e-9);

    auto sweep = analyzer.greedySweep();
    ASSERT_EQ(sweep.size(), 5u);
    int knee = CriticalityAnalyzer::kneePoint(sweep);
    EXPECT_GE(knee, 0);
    EXPECT_LE(knee, 4);
    EXPECT_EQ(static_cast<int>(sweep[knee].poweredOn.size()), knee);
}

TEST(CriticalityEdge, RectangularMeshes)
{
    // k x m with k != m: the serpentine ring construction and the sweep
    // must not assume a square mesh.
    for (auto [rows, cols] : {std::pair{2, 5}, {4, 6}, {6, 4}}) {
        MeshTopology mesh(rows, cols);
        BypassRing ring(mesh);
        CriticalityAnalyzer analyzer(mesh, ring);
        const int n = rows * cols;

        std::vector<bool> off(n, false);
        // n-ring: mean forward distance = sum(1..n-1)/(n-1) = n/2.
        EXPECT_NEAR(analyzer.analyze(off).avgDistanceHops, n / 2.0, 1e-9)
            << rows << "x" << cols;

        auto sweep = analyzer.greedySweep();
        ASSERT_EQ(sweep.size(), static_cast<size_t>(n) + 1);
        for (size_t k = 1; k < sweep.size(); ++k) {
            EXPECT_LE(sweep[k].avgDistanceHops,
                      sweep[k - 1].avgDistanceHops + 1e-9);
        }
        int knee = CriticalityAnalyzer::kneePoint(sweep);
        const std::vector<NodeId> &set = sweep[knee].poweredOn;
        EXPECT_EQ(static_cast<int>(set.size()), knee);
        for (NodeId r : set) {
            EXPECT_GE(r, 0);
            EXPECT_LT(r, n);
        }
    }
}

TEST(CriticalityEdge, BrokenRingOrdersRejected)
{
    MeshTopology mesh(4, 4);

    // Node 0 appears twice, node 15 never: not Hamiltonian.
    std::vector<NodeId> repeated = BypassRing(mesh).order();
    for (NodeId &node : repeated) {
        if (node == 15)
            node = 0;
    }
    EXPECT_EXIT({ BypassRing ring(mesh, repeated); },
                ::testing::ExitedWithCode(1), "");

    // A permutation whose hops teleport across the mesh.
    std::vector<NodeId> teleport = BypassRing(mesh).order();
    std::swap(teleport[3], teleport[10]);
    EXPECT_EXIT({ BypassRing ring(mesh, teleport); },
                ::testing::ExitedWithCode(1), "");

    // Too short.
    EXPECT_EXIT({ BypassRing ring(mesh, {0, 1, 2}); },
                ::testing::ExitedWithCode(1), "");
}

// ---------------------------------------------------------------------------
// Floyd-Warshall oracle: the paper's off-line program, kept here only.
// ---------------------------------------------------------------------------

/** All-pairs hops and cycles. */
struct Oracle
{
    std::vector<double> hops;
    std::vector<double> cycles;
};

/**
 * Floyd-Warshall over cycles. Hops follow the cycle relaxations (the
 * paper's program) or, with @p fewestHops, also relax on equal cycles
 * and fewer hops (the analyzer's cycles-then-hops order).
 */
Oracle
floydWarshall(const MeshTopology &mesh, const BypassRing &ring,
              const std::vector<bool> &on, bool fewestHops = false)
{
    const int n = mesh.numNodes();
    const double inf = std::numeric_limits<double>::infinity();
    const size_t cells = static_cast<size_t>(n) * n;
    auto at = [n](int i, int j) { return static_cast<size_t>(i) * n + j; };
    Oracle o{std::vector<double>(cells, inf), std::vector<double>(cells, inf)};
    auto edge = [&](NodeId x, NodeId y) {
        o.hops[at(x, y)] = 1.0;
        o.cycles[at(x, y)] = on[y] ? 5.0 : 3.0;
    };
    for (NodeId x = 0; x < n; ++x) {
        o.hops[at(x, x)] = o.cycles[at(x, x)] = 0.0;
        if (!on[x]) {
            edge(x, ring.successor(x));
            continue;
        }
        for (int d = 0; d < kNumMeshDirs; ++d) {
            const NodeId y = mesh.neighbor(x, indexDir(d));
            if (y != kInvalidNode && (on[y] || ring.predecessor(y) == x))
                edge(x, y);
        }
    }
    for (int k = 0; k < n; ++k) {
        for (int i = 0; i < n; ++i) {
            for (int j = 0; j < n; ++j) {
                const double c = o.cycles[at(i, k)] + o.cycles[at(k, j)];
                const double h = o.hops[at(i, k)] + o.hops[at(k, j)];
                if (c < o.cycles[at(i, j)] ||
                    (fewestHops && c == o.cycles[at(i, j)] &&
                     h < o.hops[at(i, j)])) {
                    o.cycles[at(i, j)] = c;
                    o.hops[at(i, j)] = h;
                }
            }
        }
    }
    return o;
}

/** The oracle's Figure 6 averages, summed as the paper's program does. */
std::pair<double, double>
oracleAverages(const Oracle &o, int n)
{
    double hops = 0.0;
    double cycles = 0.0;
    for (size_t ij = 0; ij < o.hops.size(); ++ij) {
        hops += o.hops[ij];
        cycles += o.cycles[ij];
    }
    return {hops / (n * (n - 1)), cycles / hops};
}

TEST(CriticalityOracle, RandomPowerSetsMatchFloydWarshall)
{
    // Cycle matrices match the oracle exactly. Hop sums may only be
    // lower: we report the fewest hops among the cheapest-in-cycles
    // paths (checked exactly against a cycles-then-hops Floyd-Warshall),
    // the paper's program whichever cheapest path it relaxed first.
    std::mt19937 rng(2012);
    int fewerHops = 0;
    for (auto [rows, cols] :
         {std::pair{2, 2}, {2, 5}, {4, 4}, {4, 7}, {6, 4}, {6, 6}, {8, 8}}) {
        MeshTopology mesh(rows, cols);
        BypassRing ring(mesh);
        CriticalityAnalyzer analyzer(mesh, ring);
        const int n = mesh.numNodes();
        for (int trial = 0; trial < 120; ++trial) {
            // Three passes over densities from all-off to all-on.
            std::bernoulli_distribution coin((trial % 40) / 39.0);
            std::vector<bool> on(static_cast<size_t>(n));
            for (int x = 0; x < n; ++x)
                on[x] = coin(rng);
            const Oracle o = floydWarshall(mesh, ring, on);
            ASSERT_EQ(analyzer.distanceMatrixCycles(on), o.cycles)
                << rows << "x" << cols << " trial " << trial;

            const CriticalityPoint pt = analyzer.analyze(on);
            const auto [hops, perHop] = oracleAverages(o, n);
            EXPECT_LE(pt.avgDistanceHops, hops)
                << rows << "x" << cols << " trial " << trial;
            fewerHops += pt.avgDistanceHops < hops;
            const auto [fewest, fewestPerHop] = oracleAverages(
                floydWarshall(mesh, ring, on, /*fewestHops=*/true), n);
            EXPECT_EQ(pt.avgDistanceHops, fewest)
                << rows << "x" << cols << " trial " << trial;
            EXPECT_EQ(pt.avgPerHopLatency, fewestPerHop)
                << rows << "x" << cols << " trial " << trial;
        }
    }
    // Informational: how often Floyd-Warshall's relaxation order reported
    // more hops than the fewest-hop cheapest path.
    RecordProperty("fewer_hops_than_oracle", fewerHops);
}

TEST(CriticalityOracle, GreedyPointsMatchFloydWarshallExactly)
{
    for (auto [rows, cols] :
         {std::pair{2, 5}, {4, 4}, {4, 7}, {6, 6}, {8, 8}}) {
        MeshTopology mesh(rows, cols);
        BypassRing ring(mesh);
        const int n = mesh.numNodes();
        for (const CriticalityPoint &pt :
             CriticalityAnalyzer(mesh, ring).greedySweep()) {
            std::vector<bool> on(static_cast<size_t>(n), false);
            for (NodeId r : pt.poweredOn)
                on[r] = true;
            const auto [hops, perHop] =
                oracleAverages(floydWarshall(mesh, ring, on), n);
            EXPECT_EQ(pt.avgDistanceHops, hops)
                << rows << "x" << cols << " k=" << pt.numPoweredOn;
            EXPECT_EQ(pt.avgPerHopLatency, perHop)
                << rows << "x" << cols << " k=" << pt.numPoweredOn;
        }
    }
}

// ---------------------------------------------------------------------------
// Golden greedy sweeps, recorded from the Floyd-Warshall implementation.
// ---------------------------------------------------------------------------

/**
 * One mesh shape's sweep: its knee, the router each greedy step powers
 * on, and sweepHash() of every step's averages.
 */
struct GoldenSweep
{
    int rows;
    int cols;
    int knee;
    std::uint64_t hash;
    const char *order;
};

/** FNV-1a over each step's avgDistanceHops/avgPerHopLatency bits. */
std::uint64_t
sweepHash(const std::vector<CriticalityPoint> &sweep)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        for (int b = 0; b < 8; ++b) {
            h ^= (bits >> (8 * b)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    for (const CriticalityPoint &pt : sweep) {
        mix(pt.avgDistanceHops);
        mix(pt.avgPerHopLatency);
    }
    return h;
}

/** The router added at each step, space-separated. */
std::string
greedyOrder(const std::vector<CriticalityPoint> &sweep)
{
    std::string order;
    for (size_t k = 1; k < sweep.size(); ++k) {
        const std::vector<NodeId> &prev = sweep[k - 1].poweredOn;
        for (NodeId r : sweep[k].poweredOn) {
            if (std::find(prev.begin(), prev.end(), r) != prev.end())
                continue;
            if (!order.empty())
                order += ' ';
            order += std::to_string(r);
        }
    }
    return order;
}

const GoldenSweep kGolden[] = {
    {2, 2, 0, 0x0ac05d581e82d348ull,
     "0 1 2 3"},
    {2, 3, 3, 0xd23f5d18fb0b3fc9ull,
     "0 1 4 3 2 5"},
    {2, 4, 3, 0x4c480086852dc2d6ull,
     "0 1 5 2 6 4 3 7"},
    {2, 5, 5, 0x9059ba09fd66e1d1ull,
     "0 1 6 2 7 3 8 5 4 9"},
    {2, 6, 5, 0x10b6cc68cfeb503full,
     "0 1 7 2 8 3 9 4 10 6 5 11"},
    {2, 7, 7, 0x96f2d6835a2bef0eull,
     "0 1 8 2 9 3 10 4 11 5 12 7 6 13"},
    {2, 8, 7, 0x59075835a3bf1b56ull,
     "0 1 9 2 10 3 11 4 12 5 13 6 14 8 7 15"},
    {2, 9, 9, 0x5103d8d9bde03e79ull,
     "0 1 10 2 11 3 12 4 13 5 14 6 15 7 16 9 8 17"},
    {2, 10, 9, 0x6e5f089ce5cde672ull,
     "0 1 11 2 12 3 13 4 14 5 15 6 16 7 17 8 18 10 9 19"},
    {2, 11, 11, 0xc277e4c36b25ec61ull,
     "0 1 12 2 13 3 14 4 15 5 16 6 17 7 18 8 19 9 20 11 10 21"},
    {2, 12, 11, 0x67b8ba22540be434ull,
     "0 1 13 2 14 3 15 4 16 5 17 6 18 7 19 8 20 9 21 10 22 12 11 23"},
    {4, 2, 4, 0x36f088a552713ab3ull,
     "0 1 2 3 4 5 6 7"},
    {4, 3, 6, 0x33d1a9699cc7d89eull,
     "0 1 4 3 7 10 6 5 8 2 9 11"},
    {4, 4, 6, 0xb403c7c2751048c0ull,
     "0 1 5 4 9 13 8 6 10 2 14 7 11 3 12 15"},
    {4, 5, 6, 0x589396b51c5af92bull,
     "0 1 6 5 11 16 7 12 2 17 10 8 13 3 18 9 14 4 15 19"},
    {4, 6, 6, 0xd873c22103847b8bull,
     "0 1 7 6 13 19 8 14 2 20 9 15 3 21 12 10 16 4 22 11 17 5 18 23"},
    {4, 7, 10, 0xc016ae1d3a6e4d0bull,
     "0 1 8 7 15 22 9 16 2 23 10 17 3 24 11 18 4 25 14 12 19 5 26 13 "
     "20 6 21 27"},
    {4, 8, 10, 0x4b4e61c0cd54e11aull,
     "0 1 9 8 17 25 10 18 2 26 11 19 3 27 12 20 4 28 13 21 5 29 16 14 "
     "22 6 30 15 23 7 24 31"},
    {4, 9, 14, 0xe2382ac7f023a741ull,
     "0 1 10 9 19 28 11 20 2 29 12 21 3 30 13 22 4 31 14 23 5 32 15 24 "
     "6 33 18 16 25 7 34 17 26 8 27 35"},
    {4, 10, 14, 0x381ac820ae35974cull,
     "0 1 11 10 21 31 12 22 2 32 13 23 3 33 14 24 4 34 15 25 5 35 16 "
     "26 6 36 17 27 7 37 20 18 28 8 38 19 29 9 30 39"},
    {4, 11, 14, 0xe3b9d235ada786e8ull,
     "0 1 12 11 23 34 13 24 2 35 14 25 3 36 15 26 4 37 16 27 5 38 17 "
     "28 6 39 18 29 7 40 19 30 8 41 22 20 31 9 42 21 32 10 33 43"},
    {4, 12, 18, 0xf343217144de1919ull,
     "0 1 13 12 25 37 14 26 2 38 15 27 3 39 16 28 4 40 17 29 5 41 18 "
     "30 6 42 19 31 7 43 20 32 8 44 21 33 9 45 24 22 34 10 46 23 35 11 "
     "36 47"},
    {6, 2, 6, 0x4784a1c1d0951193ull,
     "0 1 2 3 4 5 6 7 8 9 10 11"},
    {6, 3, 9, 0x2005ad2d2e4d4455ull,
     "0 1 4 3 7 10 9 13 16 6 12 5 14 8 11 2 15 17"},
    {6, 4, 9, 0xac40708cf9c1a16dull,
     "0 1 5 4 9 13 12 17 21 6 10 14 18 2 22 16 8 7 19 11 15 3 20 23"},
    {6, 5, 9, 0x1255767b9ae7116dull,
     "0 1 6 5 11 16 15 21 26 7 12 17 22 2 27 8 13 18 23 3 28 20 10 9 "
     "24 14 19 4 25 29"},
    {6, 6, 9, 0xf06a238bfa3dbad6ull,
     "0 1 7 6 13 19 18 25 31 8 14 20 26 2 32 9 15 21 27 3 33 10 16 28 "
     "22 4 34 24 12 11 29 17 23 5 30 35"},
    {6, 7, 9, 0xe3dba3668e5bbb13ull,
     "0 1 8 7 15 22 21 29 36 9 16 23 30 2 37 10 17 24 31 3 38 11 18 25 "
     "32 4 39 12 19 33 26 5 40 28 14 13 34 20 27 6 35 41"},
    {6, 8, 9, 0x1ae6b5218c283babull,
     "0 1 9 8 17 25 24 33 41 10 18 26 34 2 42 11 19 27 35 3 43 12 20 "
     "28 36 4 44 13 21 29 37 5 45 14 22 38 30 6 46 32 16 15 39 23 31 7 "
     "40 47"},
    {6, 9, 9, 0x5b845fec2fd0043cull,
     "0 1 10 9 19 28 27 37 46 11 20 29 38 2 47 12 21 30 39 3 48 13 22 "
     "31 40 4 49 14 23 32 41 5 50 15 24 33 42 6 51 16 43 34 25 7 52 36 "
     "18 17 44 26 35 8 45 53"},
    {6, 10, 15, 0x8f57b26da041ecbbull,
     "0 1 11 10 21 31 30 41 51 12 22 32 42 2 52 13 23 33 43 3 53 14 24 "
     "34 44 4 54 15 25 35 45 5 55 16 26 36 46 6 56 17 27 37 47 7 57 18 "
     "48 38 28 40 8 58 20 19 49 29 39 9 50 59"},
    {6, 11, 15, 0x3ae5efdb287d9568ull,
     "0 1 12 11 23 34 33 45 56 13 24 35 46 2 57 14 25 36 47 3 58 15 26 "
     "37 48 4 59 16 27 38 49 5 60 17 28 39 50 6 61 18 29 40 51 7 62 19 "
     "30 41 52 8 63 20 53 42 31 44 9 64 22 21 54 32 43 10 55 65"},
    {6, 12, 15, 0xd6cf4af191920a71ull,
     "0 1 13 12 25 37 36 49 61 14 26 38 50 2 62 15 27 39 51 3 63 16 28 "
     "40 52 4 64 17 29 41 53 5 65 18 30 42 54 6 66 19 31 43 55 7 67 20 "
     "32 44 56 8 68 21 33 57 45 9 69 22 58 46 34 48 10 70 24 23 59 35 "
     "47 11 60 71"},
    {8, 2, 8, 0xfa848ea843e15b34ull,
     "0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15"},
    {8, 3, 10, 0xdce55270541c33cbull,
     "0 1 4 3 7 10 9 13 16 15 19 22 6 12 18 5 20 11 14 8 17 2 21 23"},
    {8, 4, 12, 0x64caf9686945468full,
     "0 1 5 4 9 13 12 17 21 20 25 29 6 10 14 18 22 26 2 30 24 8 16 7 "
     "27 15 19 11 23 3 28 31"},
    {8, 5, 12, 0xf84ce59358a832b1ull,
     "0 1 6 5 11 16 15 21 26 25 31 36 7 12 17 22 27 32 2 37 8 33 28 23 "
     "18 13 3 38 30 10 20 9 34 19 24 14 29 4 35 39"},
    {8, 6, 12, 0xd8cb3978045f7e4full,
     "0 1 7 6 13 19 18 25 31 30 37 43 8 14 20 26 32 38 2 44 9 15 21 27 "
     "33 39 3 45 10 40 34 28 22 16 4 46 36 12 24 11 41 23 29 17 35 5 "
     "42 47"},
    {8, 7, 12, 0xffeb555088a8e545ull,
     "0 1 8 7 15 22 21 29 36 35 43 50 9 16 23 30 37 44 2 51 10 17 24 "
     "31 38 45 3 52 11 18 25 32 39 46 4 53 12 47 40 33 26 19 5 54 42 "
     "14 28 13 48 27 34 20 41 6 49 55"},
    {8, 8, 12, 0xe2c64adb4403771full,
     "0 1 9 8 17 25 24 33 41 40 49 57 10 18 26 34 42 50 2 58 11 19 27 "
     "35 43 51 3 59 12 20 28 36 44 52 4 60 13 21 29 37 45 53 5 61 14 "
     "54 46 38 30 22 6 62 48 16 32 15 55 31 39 23 47 7 56 63"},
    {8, 9, 12, 0x2babadcd8c8ef61dull,
     "0 1 10 9 19 28 27 37 46 45 55 64 11 20 29 38 47 56 2 65 12 21 30 "
     "39 48 57 3 66 13 22 31 40 49 58 4 67 14 23 32 41 50 59 5 68 15 "
     "24 33 42 51 60 6 69 16 61 34 43 52 25 7 70 54 18 36 17 62 35 44 "
     "26 53 8 63 71"},
    {8, 10, 12, 0xef2e495ef5130bc2ull,
     "0 1 11 10 21 31 30 41 51 50 61 71 12 22 32 42 52 62 2 72 13 23 "
     "33 43 53 63 3 73 14 24 34 44 54 64 4 74 15 25 35 45 55 65 5 75 "
     "16 26 36 46 56 66 6 76 17 67 57 47 37 27 7 77 18 68 38 48 58 28 "
     "8 78 60 20 40 19 69 39 49 29 59 9 70 79"},
    {8, 11, 12, 0xc2cd5bf30321d875ull,
     "0 1 12 11 23 34 33 45 56 55 67 78 13 24 35 46 57 68 2 79 14 25 "
     "36 47 58 69 3 80 15 26 37 48 59 70 4 81 16 27 38 49 60 71 5 82 "
     "17 28 39 50 61 72 6 83 18 29 40 51 62 73 7 84 19 74 63 52 41 30 "
     "8 85 20 75 42 53 64 31 9 86 66 22 44 21 76 43 54 32 65 10 77 87"},
    {8, 12, 12, 0x99514dca6f710cb2ull,
     "0 1 13 12 25 37 36 49 61 60 73 85 14 26 38 50 62 74 2 86 15 27 "
     "39 51 63 75 3 87 16 28 40 52 64 76 4 88 17 29 41 53 65 77 5 89 "
     "18 30 42 54 66 78 6 90 19 31 43 55 67 79 7 91 20 32 44 56 68 80 "
     "8 92 21 81 69 57 45 33 9 93 22 82 46 58 70 34 10 94 72 24 48 23 "
     "83 47 59 35 71 11 84 95"},
    {10, 2, 10, 0x47214a1caecaaaafull,
     "0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19"},
    {10, 3, 12, 0x7f6fc96d3d11ff8cull,
     "0 1 4 3 7 10 9 13 16 15 19 22 21 25 28 6 12 18 24 5 26 11 20 14 "
     "17 8 23 2 27 29"},
    {10, 4, 12, 0xf85be1e01f0db89aull,
     "0 1 5 4 9 13 12 17 21 20 25 29 28 33 37 6 34 30 26 22 18 14 10 2 "
     "38 32 8 16 24 7 35 15 27 19 23 11 31 3 36 39"},
    {10, 5, 15, 0x6e73f3dc85821af7ull,
     "0 1 6 5 11 16 15 21 26 25 31 36 35 41 46 7 12 17 22 27 32 37 42 "
     "2 47 8 43 18 13 23 28 33 38 3 48 40 10 20 30 9 44 19 34 24 29 14 "
     "39 4 45 49"},
    {10, 6, 15, 0xaadfeaeaff751f2dull,
     "0 1 7 6 13 19 18 25 31 30 37 43 42 49 55 8 14 20 26 32 38 44 50 "
     "2 56 9 15 21 27 33 39 45 51 3 57 10 52 22 28 16 34 40 46 4 58 48 "
     "12 24 36 11 53 23 41 29 35 17 47 5 54 59"},
    {10, 7, 15, 0xacda5ec4482a05f1ull,
     "0 1 8 7 15 22 21 29 36 35 43 50 49 57 64 9 16 23 30 37 44 51 58 "
     "2 65 10 17 24 31 38 45 52 59 3 66 11 60 53 46 39 32 25 18 4 67 "
     "12 61 26 33 19 40 47 54 5 68 56 14 28 42 13 62 27 48 34 41 20 55 "
     "6 63 69"},
    {10, 8, 15, 0x4323300f501c99c3ull,
     "0 1 9 8 17 25 24 33 41 40 49 57 56 65 73 10 18 26 34 42 50 58 66 "
     "2 74 11 19 27 35 43 51 59 67 3 75 12 20 28 36 44 52 60 68 4 76 "
     "13 69 61 53 45 37 29 21 5 77 14 70 30 38 22 46 54 62 6 78 64 16 "
     "32 48 15 71 31 55 39 47 23 63 7 72 79"},
    {10, 9, 15, 0xfa7bc39412b90591ull,
     "0 1 10 9 19 28 27 37 46 45 55 64 63 73 82 11 20 29 38 47 56 65 "
     "74 2 83 12 21 30 39 48 57 66 75 3 84 13 22 31 40 49 58 67 76 4 "
     "85 14 23 32 41 50 59 68 77 5 86 15 78 69 60 51 42 33 24 6 87 16 "
     "79 34 61 52 43 70 25 7 88 72 18 36 54 17 80 35 62 44 53 26 71 8 "
     "81 89"},
    {10, 10, 15, 0xa8efcc99b2f672c0ull,
     "0 1 11 10 21 31 30 41 51 50 61 71 70 81 91 12 22 32 42 52 62 72 "
     "82 2 92 13 23 33 43 53 63 73 83 3 93 14 24 34 44 54 64 74 84 4 "
     "94 15 25 35 45 55 65 75 85 5 95 16 26 36 46 56 66 76 86 6 96 17 "
     "87 37 27 47 57 67 77 7 97 18 88 38 68 58 48 78 28 8 98 80 20 40 "
     "60 19 89 39 69 49 59 29 79 9 90 99"},
    {10, 11, 15, 0xc7e0767cef7b644eull,
     "0 1 12 11 23 34 33 45 56 55 67 78 77 89 100 13 24 35 46 57 68 79 "
     "90 2 101 14 25 36 47 58 69 80 91 3 102 15 26 37 48 59 70 81 92 4 "
     "103 16 27 38 49 60 71 82 93 5 104 17 28 39 50 61 72 83 94 6 105 "
     "18 95 84 73 62 51 40 29 7 106 19 96 41 30 52 63 74 85 8 107 20 "
     "97 42 75 64 53 86 31 9 108 88 22 44 66 21 98 43 76 54 65 32 87 "
     "10 99 109"},
    {10, 12, 15, 0xf7693d51f4ed1b3dull,
     "0 1 13 12 25 37 36 49 61 60 73 85 84 97 109 14 26 38 50 62 74 86 "
     "98 2 110 15 27 39 51 63 75 87 99 3 111 16 28 40 52 64 76 88 100 "
     "4 112 17 29 41 53 65 77 89 101 5 113 18 30 42 54 66 78 90 102 6 "
     "114 19 31 43 55 67 79 91 103 7 115 20 104 92 80 68 56 44 32 8 "
     "116 21 105 45 57 33 69 81 93 9 117 22 106 46 82 70 58 94 34 10 "
     "118 96 24 48 72 23 107 47 83 59 71 35 95 11 108 119"},
    {12, 2, 12, 0x83ad92ef55c5448aull,
     "0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23"},
    {12, 3, 15, 0x8dffe19e65eae9b3ull,
     "0 1 4 3 7 10 9 13 16 15 19 22 21 25 28 27 31 34 6 12 18 24 30 5 "
     "32 11 26 17 20 14 23 8 29 2 33 35"},
    {12, 4, 15, 0x96ea34036890fd8aull,
     "0 1 5 4 9 13 12 17 21 20 25 29 28 33 37 36 41 45 42 6 40 14 10 "
     "18 22 26 30 34 38 2 46 8 16 24 32 7 43 15 35 23 27 19 31 11 39 3 "
     "44 47"},
    {12, 5, 15, 0x9bf662d764e9908bull,
     "0 1 6 5 11 16 15 21 26 25 31 36 35 41 46 45 51 56 52 7 47 42 37 "
     "32 27 22 17 12 57 2 53 8 18 43 48 38 33 28 23 13 3 58 50 10 20 "
     "30 40 9 54 19 44 29 34 24 39 14 49 4 55 59"},
    {12, 6, 15, 0x94e42452c934f598ull,
     "0 1 7 6 13 19 18 25 31 30 37 43 42 49 55 54 61 67 62 56 50 44 38 "
     "32 26 20 14 8 68 2 63 9 57 51 45 39 33 27 21 15 3 69 64 10 22 52 "
     "46 58 40 34 28 16 4 70 60 12 24 36 48 11 65 23 53 35 41 29 47 17 "
     "59 5 66 71"},
    {12, 7, 15, 0x596f9625d8dfb55full,
     "0 1 8 7 15 22 21 29 36 35 43 50 49 57 64 63 71 78 72 65 58 51 44 "
     "37 30 23 16 9 79 2 73 66 59 52 45 38 31 24 17 10 3 80 74 11 25 "
     "18 32 39 46 53 60 67 4 81 75 12 26 61 54 68 47 40 33 19 5 82 70 "
     "14 28 42 56 13 76 27 62 41 48 34 55 20 69 6 77 83"},
    {12, 8, 18, 0xe59a9631b3073e42ull,
     "0 1 9 8 17 25 24 33 41 40 49 57 56 65 73 72 81 89 82 74 66 58 50 "
     "42 34 26 18 10 90 2 83 75 67 59 51 43 35 27 19 11 3 91 84 76 68 "
     "60 52 44 36 28 20 12 4 92 85 13 29 21 37 45 53 61 69 77 5 93 86 "
     "14 30 70 62 78 54 46 38 22 6 94 80 16 32 48 64 15 87 31 71 47 55 "
     "39 63 23 79 7 88 95"},
    {12, 9, 18, 0x0a8e84fb8561bcd5ull,
     "0 1 10 9 19 28 27 37 46 45 55 64 63 73 82 81 91 100 92 83 74 65 "
     "56 47 38 29 20 11 101 2 93 84 75 66 57 48 39 30 21 12 3 102 94 "
     "85 76 67 58 49 40 31 22 13 4 103 95 14 86 77 68 59 50 41 32 23 5 "
     "104 96 15 33 24 42 51 60 69 78 87 6 105 97 16 34 79 52 61 70 43 "
     "88 25 7 106 90 18 36 54 72 17 98 35 80 53 62 44 71 26 89 8 99 "
     "107"},
    {12, 10, 18, 0x54ba3b0afc3242bfull,
     "0 1 11 10 21 31 30 41 51 50 61 71 70 81 91 90 101 111 102 92 82 "
     "72 62 52 42 32 22 12 112 2 103 93 83 73 63 53 43 33 23 13 3 113 "
     "104 94 84 74 64 54 44 34 24 14 4 114 105 95 85 75 65 55 45 35 25 "
     "15 5 115 106 16 96 86 76 66 56 46 36 26 6 116 107 17 37 87 97 77 "
     "67 57 47 27 7 117 108 18 38 88 58 68 78 48 98 28 8 118 100 20 40 "
     "60 80 19 109 39 89 59 69 49 79 29 99 9 110 119"},
    {12, 11, 18, 0xc54d875062b1c72aull,
     "0 1 12 11 23 34 33 45 56 55 67 78 77 89 100 99 111 122 112 101 "
     "90 79 68 57 46 35 24 13 123 2 113 102 91 80 69 58 47 36 25 14 3 "
     "124 114 103 92 81 70 59 48 37 26 15 4 125 115 104 93 82 71 60 49 "
     "38 27 16 5 126 116 105 94 83 72 61 50 39 28 17 6 127 117 18 40 "
     "29 51 62 73 84 95 106 7 128 118 19 41 96 107 85 74 63 52 30 8 "
     "129 119 20 42 97 64 75 86 53 108 31 110 9 130 22 44 66 88 21 120 "
     "43 98 65 76 54 87 32 109 10 121 131"},
    {12, 12, 18, 0x16b632dcb59091cdull,
     "0 1 13 12 25 37 36 49 61 60 73 85 84 97 109 108 121 133 122 110 "
     "98 86 74 62 50 38 26 14 134 2 123 111 99 87 75 63 51 39 27 15 3 "
     "135 124 112 100 88 76 64 52 40 28 16 4 136 125 113 101 89 77 65 "
     "53 41 29 17 5 137 126 114 102 90 78 66 54 42 30 18 6 138 127 115 "
     "103 91 79 67 55 43 31 19 7 139 128 20 44 32 56 68 80 92 104 116 "
     "8 140 129 21 45 105 93 117 81 69 57 33 9 141 130 22 46 106 70 82 "
     "94 58 118 34 120 10 142 24 48 72 96 23 131 47 107 71 83 59 95 35 "
     "119 11 132 143"},
};

/**
 * Prints kGolden in source form from whatever analyzer it is linked
 * with; the table was generated by running it against the Floyd-Warshall
 * implementation:
 *   nord_tests --gtest_also_run_disabled_tests
 *              --gtest_filter=CriticalityGolden.DISABLED_PrintTable
 */
TEST(CriticalityGolden, DISABLED_PrintTable)
{
    for (int rows = 2; rows <= 12; rows += 2) {
        for (int cols = 2; cols <= 12; ++cols) {
            MeshTopology mesh(rows, cols);
            BypassRing ring(mesh);
            const auto sweep = CriticalityAnalyzer(mesh, ring).greedySweep();
            std::printf("    {%d, %d, %d, 0x%016llxull,\n     \"%s\"},\n",
                        rows, cols, CriticalityAnalyzer::kneePoint(sweep),
                        static_cast<unsigned long long>(sweepHash(sweep)),
                        greedyOrder(sweep).c_str());
        }
    }
}

TEST(CriticalityGolden, EveryEvenRowShapeMatchesFloydWarshall)
{
    for (const GoldenSweep &g : kGolden) {
        MeshTopology mesh(g.rows, g.cols);
        BypassRing ring(mesh);
        const auto sweep = CriticalityAnalyzer(mesh, ring).greedySweep();
        const std::string shape =
            std::to_string(g.rows) + "x" + std::to_string(g.cols);
        EXPECT_EQ(CriticalityAnalyzer::kneePoint(sweep), g.knee) << shape;
        EXPECT_EQ(greedyOrder(sweep), g.order) << shape;
        EXPECT_EQ(sweepHash(sweep), g.hash) << shape;
    }
    EXPECT_EQ(std::size(kGolden), 66u);
}

TEST(CriticalityCacheTest, OneSweepPerShapeServesKneeAndEverySet)
{
    CriticalityCache &cache = CriticalityCache::instance();
    cache.clear();
    MeshTopology mesh(4, 4);
    BypassRing ring(mesh);
    const auto sweep = CriticalityAnalyzer(mesh, ring).greedySweep();

    EXPECT_EQ(cache.knee(mesh, ring), 6);
    for (int count = 0; count <= mesh.numNodes(); ++count)
        EXPECT_EQ(cache.perfSet(mesh, ring, count), sweep[count].poweredOn);
    EXPECT_EQ(cache.entries(), 1u) << "knee and sets share one sweep";

    const std::vector<NodeId> &perf = cache.perfSet(mesh, ring, 6);
    std::vector<bool> on(16, false);
    for (NodeId r : perf)
        on[r] = true;
    EXPECT_EQ(cache.steering(mesh, ring, perf),
              CriticalityAnalyzer(mesh, ring).distanceMatrixCycles(on));
    EXPECT_EQ(cache.entries(), 2u);
    cache.clear();
}

}  // namespace
}  // namespace nord

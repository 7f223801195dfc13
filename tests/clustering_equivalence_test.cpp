// Differential oracle for bottom-up clustering (Alg. 3): the production
// pair heap in post::clusterAndRoute must reproduce the rescan loop of
// tests/cluster_oracle.hpp exactly — same ClusteringResult, same routed
// bits (topology, cluster key, layers), same leftovers and the same
// per-edge and per-cell usage — on shrunk and full synth suites and on
// seeded random designs with blockage walls. Also pins the clustering
// work counters: thread-count invariant, and fewer pair evaluations than
// the rescan on a full congested design.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <string>

#include "cluster_oracle.hpp"
#include "test_util.hpp"
#include "core/pd_solver.hpp"
#include "flow/streak.hpp"
#include "gen/generator.hpp"
#include "obs/session.hpp"
#include "post/clustering.hpp"

namespace streak {
namespace {

/// A design routed by the primal-dual solver, ready for clustering.
struct Prepared {
    Design design;
    RoutingProblem prob;
    RoutedDesign routed;

    explicit Prepared(Design d)
        : design(std::move(d)),
          prob(buildProblem(design, StreakOptions{})),
          routed(materialize(prob, solvePrimalDual(prob).solution)) {}
};

void expectSameRouting(const RoutedDesign& want, const RoutedDesign& got) {
    ASSERT_EQ(want.bits.size(), got.bits.size());
    for (size_t k = 0; k < want.bits.size(); ++k) {
        const RoutedBit& w = want.bits[k];
        const RoutedBit& g = got.bits[k];
        EXPECT_EQ(w.groupIndex, g.groupIndex) << "bit " << k;
        EXPECT_EQ(w.bitIndex, g.bitIndex) << "bit " << k;
        EXPECT_EQ(w.objectIndex, g.objectIndex) << "bit " << k;
        EXPECT_EQ(w.memberIndex, g.memberIndex) << "bit " << k;
        EXPECT_EQ(w.clusterKey, g.clusterKey) << "bit " << k;
        EXPECT_TRUE(w.topo == g.topo) << "bit " << k;
        EXPECT_EQ(w.hLayer, g.hLayer) << "bit " << k;
        EXPECT_EQ(w.vLayer, g.vLayer) << "bit " << k;
    }
    EXPECT_EQ(want.unroutedMembers, got.unroutedMembers);
    const grid::RoutingGrid& grid = want.usage.grid();
    for (int e = 0; e < grid.numEdges(); ++e) {
        ASSERT_EQ(want.usage.usage(e), got.usage.usage(e)) << "edge " << e;
    }
    for (int c = 0; c < grid.numCells(); ++c) {
        ASSERT_EQ(want.usage.viaUsage(c), got.usage.viaUsage(c))
            << "cell " << c;
    }
}

/// Cluster one design both ways; returns the bits clustering attempted.
int expectHeapMatchesOracle(Design design) {
    const Prepared p(std::move(design));
    RoutedDesign viaOracle = p.routed;
    RoutedDesign viaHeap = p.routed;
    const post::ClusteringResult want =
        testoracle::clusterAndRouteOracle(p.prob, &viaOracle);
    const post::ClusteringResult got = post::clusterAndRoute(p.prob, &viaHeap);
    EXPECT_EQ(want.bitsAttempted, got.bitsAttempted);
    EXPECT_EQ(want.bitsRouted, got.bitsRouted);
    EXPECT_EQ(want.clustersFormed, got.clustersFormed);
    expectSameRouting(viaOracle, viaHeap);
    return want.bitsAttempted;
}

/// A small congested design with two vertical blockage walls, each
/// spanning every layer except for one gap; optionally via-limited.
Design walledDesign(std::uint32_t seed, bool viaLimited) {
    gen::SuiteSpec spec;
    spec.name = "walled" + std::to_string(seed);
    spec.gridWidth = 32;
    spec.gridHeight = 32;
    spec.numLayers = 4;
    spec.capacity = 2;
    spec.numGroups = 10;
    spec.minGroupWidth = 4;
    spec.maxGroupWidth = 12;
    spec.maxPins = 4;
    spec.numBlockages = 4;
    spec.viaCapacity = viaLimited ? 3 : -1;
    spec.seed = seed;
    Design d = gen::generate(spec);
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> col(6, spec.gridWidth - 8);
    std::uniform_int_distribution<int> gapAt(4, spec.gridHeight - 8);
    for (int w = 0; w < 2; ++w) {
        const int x = col(rng);
        const int gap = gapAt(rng);
        for (int layer = 0; layer < spec.numLayers; ++layer) {
            d.grid.addBlockage({{x, 0}, {x, gap - 1}}, layer, 0);
            d.grid.addBlockage({{x, gap + 3}, {x, spec.gridHeight - 1}},
                               layer, 0);
        }
    }
    return d;
}

/// The golden flow tables' shrink of synth<suite> (golden_flow_test):
/// unlike shrunkSynthSpec, its synth6 leaves bits for clustering.
gen::SuiteSpec goldenSpec(int suite) {
    gen::SuiteSpec spec = gen::synthSpec(suite);
    spec.numGroups = 5;
    spec.gridWidth = 48;
    spec.gridHeight = 48;
    spec.numBlockages = spec.numBlockages < 3 ? spec.numBlockages : 3;
    return spec;
}

TEST(ClusteringEquivalence, ShrunkSynthSuites) {
    int attempted = 0;
    for (int suite = 1; suite <= 7; ++suite) {
        SCOPED_TRACE("synth" + std::to_string(suite) + "-shrunk");
        attempted +=
            expectHeapMatchesOracle(gen::generate(gen::shrunkSynthSpec(suite)));
        SCOPED_TRACE("synth" + std::to_string(suite) + "-golden");
        attempted += expectHeapMatchesOracle(gen::generate(goldenSpec(suite)));
    }
    EXPECT_GT(attempted, 0);  // the sweep must reach clustering at all
}

TEST(ClusteringEquivalence, RandomWalledDesigns) {
    int attempted = 0;
    for (std::uint32_t seed = 1; seed <= 12; ++seed) {
        for (const bool viaLimited : {false, true}) {
            SCOPED_TRACE("seed " + std::to_string(seed) +
                         (viaLimited ? " via-limited" : ""));
            attempted += expectHeapMatchesOracle(walledDesign(seed, viaLimited));
        }
    }
    EXPECT_GT(attempted, 0);
}

/// Buses of exact translates on a capacity-1 grid: many pairs tie on
/// cost exactly, so the visit order must follow (cost, i, j) to match.
Design tiedBusDesign(std::uint32_t seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> coord(2, 20);
    std::uniform_int_distribution<int> width(3, 8);
    std::uniform_int_distribution<int> pins(2, 3);
    std::vector<SignalGroup> groups;
    for (int g = 0; g < 3; ++g) {
        std::vector<geom::Point> pattern;
        const int np = pins(rng);
        for (int k = 0; k < np; ++k) pattern.push_back({coord(rng), coord(rng)});
        const bool vertical = (seed + static_cast<std::uint32_t>(g)) % 2 == 0;
        groups.push_back(testutil::makeBusGroup(pattern, width(rng),
                                                vertical ? 1 : 0,
                                                vertical ? 0 : 1,
                                                "g" + std::to_string(g)));
    }
    Design d = testutil::makeDesign(std::move(groups), 32, 32, 2, 1);
    // A horizontal-layer wall with a two-track gap.
    std::uniform_int_distribution<int> at(6, 24);
    const int x = at(rng);
    const int gap = at(rng);
    d.grid.addBlockage({{x, 0}, {x, gap - 1}}, 0, 0);
    d.grid.addBlockage({{x, gap + 2}, {x, 31}}, 0, 0);
    return d;
}

TEST(ClusteringEquivalence, TiedBusDesigns) {
    int attempted = 0;
    for (std::uint32_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        attempted += expectHeapMatchesOracle(tiedBusDesign(seed));
    }
    EXPECT_GT(attempted, 0);
}

TEST(ClusteringEquivalence, FullSynth6Designs) {
    for (const std::uint32_t seed : {1U, 2U}) {
        SCOPED_TRACE("synth6 seed " + std::to_string(seed));
        gen::SuiteSpec spec = gen::synthSpec(6);
        spec.seed = seed;
        EXPECT_GT(expectHeapMatchesOracle(gen::generate(spec)), 0);
    }
}

/// The post/cluster.* counters of one traced run.
std::map<std::string, long long> clusterCounters(const Design& design,
                                                 int threads) {
    StreakOptions opts;
    opts.threads = threads;
    opts.postOptimize = true;
    opts.session = std::make_shared<obs::Session>();
    opts.observer = [](const StreakObservation&) {};  // detail on
    const StreakResult r = runStreak(design, opts).value();
    std::map<std::string, long long> out;
    for (const auto& [name, value] : r.counters.counters) {
        if (name.starts_with("post/cluster.")) out[name] = value;
    }
    return out;
}

TEST(ClusteringCounters, ThreadCountInvariant) {
    const Design d = gen::generate(goldenSpec(6));
    const auto one = clusterCounters(d, 1);
    EXPECT_EQ(one.size(), 6U);
    EXPECT_GT(one.at("post/cluster.pair_evals"), 0);
    EXPECT_GT(one.at("post/cluster.heap_pops"), 0);
    EXPECT_EQ(one, clusterCounters(d, 2));
    EXPECT_EQ(one, clusterCounters(d, 8));
}

TEST(ClusteringCounters, FewerPairEvaluationsThanTheRescan) {
    const Prepared p(gen::makeSynth(6));
    long long oraclePairEvals = 0;
    RoutedDesign viaOracle = p.routed;
    (void)testoracle::clusterAndRouteOracle(p.prob, &viaOracle,
                                            &oraclePairEvals);

    obs::Session sess;
    const obs::SessionBind bind(sess);
    sess.setDetailEnabled(true);
    RoutedDesign viaHeap = p.routed;
    (void)post::clusterAndRoute(p.prob, &viaHeap);
    const obs::Snapshot snap = sess.snapshotMetrics();
    const long long heapPairEvals =
        snap.counters.at("post/cluster.pair_evals");
    EXPECT_GT(heapPairEvals, 0);
    EXPECT_LT(heapPairEvals, oraclePairEvals);
}

}  // namespace
}  // namespace streak

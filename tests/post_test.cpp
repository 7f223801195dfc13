// Tests for the post-optimization stages: layer prediction (Eq. 7-8),
// bottom-up clustering (Alg. 3) and distance refinement (Alg. 4).
#include <gtest/gtest.h>

#include <map>

#include "core/pd_solver.hpp"
#include "post/clustering.hpp"
#include "post/layer_predict.hpp"
#include "post/refine.hpp"
#include "test_util.hpp"

namespace streak {
namespace {

using geom::Point;

TEST(LayerPredict, PicksFreeLayersOverBlocked) {
    grid::RoutingGrid g(16, 16, 4, 8);
    // Congest horizontal layer 0 along y = 5.
    grid::EdgeUsage usage(g);
    for (int x = 0; x < 15; ++x) usage.add(g.edgeId(0, x, 5), 8);
    // One bit wanting to route along y = 5.
    steiner::Topology t({{1, 5}, {10, 5}}, 0);
    t.addSegment({{1, 5}, {10, 5}});
    const post::LayerPrediction p = post::predictLayers(usage, {{t}});
    EXPECT_EQ(p.hLayer, 2);  // layer 0 is full, layer 2 is the other H
    EXPECT_DOUBLE_EQ(p.hConflict, 0.0);
}

TEST(LayerPredict, AveragesOverCandidates) {
    grid::RoutingGrid g(16, 16, 4, 2);
    grid::EdgeUsage usage(g);
    // Two candidates for one bit: straight y=2 or straight y=6.
    steiner::Topology a({{0, 2}, {8, 2}}, 0);
    a.addSegment({{0, 2}, {8, 2}});
    steiner::Topology b({{0, 6}, {8, 6}}, 0);
    b.addSegment({{0, 6}, {8, 6}});
    const post::LayerPrediction p = post::predictLayers(usage, {{a, b}});
    // Demand 0.5 per edge < capacity: zero conflict everywhere.
    EXPECT_DOUBLE_EQ(p.hConflict, 0.0);
    EXPECT_EQ(p.hLayer, 0);  // ties break bottom-up
}

TEST(LayerPredict, VerticalDirectionIndependent) {
    grid::RoutingGrid g(16, 16, 4, 4);
    grid::EdgeUsage usage(g);
    for (int y = 0; y < 15; ++y) usage.add(g.edgeId(1, 4, y), 4);
    steiner::Topology t({{4, 0}, {4, 9}}, 0);
    t.addSegment({{4, 0}, {4, 9}});
    const post::LayerPrediction p = post::predictLayers(usage, {{t}});
    EXPECT_EQ(p.vLayer, 3);
}

struct PdRun {
    Design design;
    RoutingProblem prob;
    RoutedDesign routed;

    explicit PdRun(Design d, StreakOptions opts = {})
        : design(std::move(d)),
          prob(buildProblem(design, opts)),
          routed(materialize(prob, solvePrimalDual(prob).solution)) {}
};

TEST(Clustering, NoopWhenEverythingRouted) {
    PdRun r(testutil::makeDesign(
        {testutil::makeBusGroup({{2, 4}, {14, 4}}, 4, 0, 1)}));
    ASSERT_TRUE(r.routed.unroutedMembers.empty());
    const post::ClusteringResult res =
        post::clusterAndRoute(r.prob, &r.routed);
    EXPECT_EQ(res.bitsAttempted, 0);
    EXPECT_EQ(res.bitsRouted, 0);
}

TEST(Clustering, RecoversBlockedObjectBitByBit) {
    // A wide group with a blockage across the middle: the shared topology
    // cannot fit as one object (capacity), per-bit clustering finds room.
    Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{2, 8}, {24, 8}}, 8, 0, 1)}, 32, 32, 2, 2);
    // Capacity 2 on a 2-layer grid: an 8-bit object demands disjoint
    // tracks per bit so it fits; force contention with a blockage wall.
    d.grid.addBlockage({{10, 6}, {12, 18}}, 0, 0);
    PdRun r(std::move(d));
    const int before = r.routed.routedBits();
    const post::ClusteringResult res =
        post::clusterAndRoute(r.prob, &r.routed);
    EXPECT_GE(r.routed.routedBits(), before);
    EXPECT_EQ(r.routed.routedBits() - before, res.bitsRouted);
    EXPECT_EQ(r.routed.usage.totalOverflow(), 0);
}

TEST(Clustering, MergedBitsShareClusterKey) {
    Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{2, 8}, {20, 8}}, 4, 0, 1)}, 32, 32, 2, 1);
    // Capacity 1 everywhere: the 4-bit object (parallel tracks) still
    // needs 1 track per edge, but the object's *own* demand fits. Force
    // the object-level failure by blocking one bit's track on layer 0.
    d.grid.addBlockage({{8, 9}, {10, 9}}, 0, 0);
    PdRun r(std::move(d));
    const post::ClusteringResult res =
        post::clusterAndRoute(r.prob, &r.routed);
    ASSERT_GT(res.bitsRouted, 1);
    // Post-routed bits get fresh keys >= numObjects; bits whose routes
    // reached ratio 1 were merged and share one key.
    std::map<int, int> bitsPerPostKey;
    for (const RoutedBit& b : r.routed.bits) {
        EXPECT_GE(b.clusterKey, 0);
        if (b.clusterKey >= r.prob.numObjects()) ++bitsPerPostKey[b.clusterKey];
    }
    int shared = 0;
    for (const auto& [key, count] : bitsPerPostKey) {
        if (count >= 2) ++shared;
    }
    EXPECT_GE(shared, 1);
    EXPECT_EQ(r.routed.usage.totalOverflow(), 0);
}

TEST(Refine, FixesInjectedShortPin) {
    // Group of 3 two-pin bits; one sink much closer -> violation; the
    // refinement must add a detour that lengthens the short path.
    SignalGroup g;
    g.bits.push_back(testutil::makeBit({{4, 10}, {8, 10}}));    // short
    g.bits.push_back(testutil::makeBit({{4, 11}, {24, 11}}));   // long
    g.bits.push_back(testutil::makeBit({{4, 12}, {24, 12}}));   // long
    PdRun r(testutil::makeDesign({g}));
    const post::RefinementResult res =
        post::refineDistances(r.prob, &r.routed);
    EXPECT_EQ(res.violatingGroupsBefore, 1);
    EXPECT_EQ(res.violatingGroupsAfter, 0);
    EXPECT_GT(res.pinsFixed, 0);
    EXPECT_GT(res.addedWirelength, 0);
    // The repaired topology is still a connected tree over its pins.
    for (const RoutedBit& b : r.routed.bits) {
        EXPECT_TRUE(b.topo.connected());
        for (const int dst : b.topo.sourceToSinkDistances()) {
            EXPECT_GE(dst, 0);
        }
    }
    EXPECT_EQ(r.routed.usage.totalOverflow(), 0);
}

TEST(Refine, NoopWithoutViolations) {
    PdRun r(testutil::makeDesign(
        {testutil::makeBusGroup({{2, 4}, {14, 4}}, 4, 0, 1)}));
    const long wlBefore = [&] {
        long wl = 0;
        for (const RoutedBit& b : r.routed.bits) wl += b.topo.wirelength();
        return wl;
    }();
    const post::RefinementResult res =
        post::refineDistances(r.prob, &r.routed);
    EXPECT_EQ(res.violatingGroupsBefore, 0);
    EXPECT_EQ(res.pinsFixed, 0);
    EXPECT_EQ(res.addedWirelength, 0);
    long wlAfter = 0;
    for (const RoutedBit& b : r.routed.bits) wlAfter += b.topo.wirelength();
    EXPECT_EQ(wlAfter, wlBefore);
}

TEST(Refine, DetourAddsExactWirelength) {
    SignalGroup g;
    g.bits.push_back(testutil::makeBit({{4, 10}, {10, 10}}));
    g.bits.push_back(testutil::makeBit({{4, 11}, {26, 11}}));
    PdRun r(testutil::makeDesign({g}));
    long wlBefore = 0;
    for (const RoutedBit& b : r.routed.bits) wlBefore += b.topo.wirelength();
    const post::RefinementResult res =
        post::refineDistances(r.prob, &r.routed);
    long wlAfter = 0;
    for (const RoutedBit& b : r.routed.bits) wlAfter += b.topo.wirelength();
    EXPECT_EQ(wlAfter - wlBefore, res.addedWirelength);
}

TEST(Refine, RespectsCapacityDuringDetours) {
    // Surround the short bit with zero remaining capacity so no legal
    // detour exists; the refinement must leave it alone rather than
    // overflow.
    Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{4, 10}, {8, 10}}, 1, 0, 1, "short"),
         testutil::makeBusGroup({{4, 12}, {26, 12}}, 1, 0, 1, "long")},
        32, 32, 2, 1);
    // Make them one group so the family spans both.
    SignalGroup merged;
    merged.name = "m";
    merged.bits = {d.groups[0].bits[0], d.groups[1].bits[0]};
    Design d2 = testutil::makeDesign({merged}, 32, 32, 2, 1);
    for (int e = 0; e < d2.grid.numEdges(); ++e) {
        // Almost everything full.
        d2.grid.setCapacity(e, 1);
    }
    PdRun r(std::move(d2));
    // Saturate every vertical edge so the perpendicular legs can't fit.
    const grid::RoutingGrid& grid = r.routed.usage.grid();
    for (int l : grid.layersOf(grid::Dir::Vertical)) {
        for (int y = 0; y < grid.height() - 1; ++y) {
            for (int x = 0; x < grid.width(); ++x) {
                const int e = grid.edgeId(l, x, y);
                if (r.routed.usage.remaining(e) > 0) {
                    r.routed.usage.add(e, r.routed.usage.remaining(e));
                }
            }
        }
    }
    const post::RefinementResult res =
        post::refineDistances(r.prob, &r.routed);
    EXPECT_EQ(res.pinsFixed, 0);
    EXPECT_EQ(r.routed.usage.totalOverflow(), 0);
}

}  // namespace
}  // namespace streak

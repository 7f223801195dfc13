#include "core/regularity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <set>
#include <vector>

namespace streak {
namespace {

using geom::Point;
using steiner::Topology;

Topology lTopo(Point driver, Point sink, bool horizontalFirst) {
    Topology t({driver, sink}, 0);
    const Point corner = horizontalFirst ? Point{sink.x, driver.y}
                                         : Point{driver.x, sink.y};
    t.addLShape(driver, sink, corner);
    return t;
}

TEST(RegularityRatio, IdenticalShapesScoreOne) {
    const Topology a = lTopo({0, 0}, {6, 4}, true);
    const Topology b = lTopo({0, 10}, {6, 14}, true);
    EXPECT_DOUBLE_EQ(regularityRatio(a, b), 1.0);
}

TEST(RegularityRatio, SymmetricInArguments) {
    const Topology a = lTopo({0, 0}, {6, 4}, true);
    const Topology b = lTopo({0, 10}, {9, 12}, false);
    EXPECT_DOUBLE_EQ(regularityRatio(a, b), regularityRatio(b, a));
}

TEST(RegularityRatio, BoundedByOne) {
    const Topology a = lTopo({0, 0}, {6, 4}, true);
    const Topology b = lTopo({2, 0}, {9, 9}, false);
    const double r = regularityRatio(a, b);
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
}

TEST(RegularityRatio, StraightVsLShareTrunk) {
    // Fig. 3(a): a straight +x route and an L route; the bend maps to the
    // sink, the shared horizontal trunk matches -> ratio 1.
    Topology straight({{0, 0}, {8, 0}}, 0);
    straight.addSegment({{0, 0}, {8, 0}});
    const Topology l = lTopo({0, 4}, {8, 9}, true);
    EXPECT_DOUBLE_EQ(regularityRatio(straight, l), 1.0);
}

TEST(RegularityRatio, OppositeDirectionsShareNothing) {
    Topology right({{0, 0}, {8, 0}}, 0);
    right.addSegment({{0, 0}, {8, 0}});
    Topology up({{0, 0}, {0, 8}}, 0);
    up.addSegment({{0, 0}, {0, 8}});
    EXPECT_LT(regularityRatio(right, up), 1.0);
}

TEST(RegularityRatio, SelfRatioIsOne) {
    const Topology a = lTopo({3, 3}, {9, 8}, false);
    EXPECT_DOUBLE_EQ(regularityRatio(a, a), 1.0);
}

TEST(RegularityRatio, NoRCsIsTriviallyRegular) {
    const Topology a({{2, 2}}, 0);
    const Topology b = lTopo({0, 0}, {4, 4}, true);
    EXPECT_DOUBLE_EQ(regularityRatio(a, b), 1.0);
}

/// Ratio() computed straight from structure(), as the implementation
/// did before views existed: the reference the view path must match.
double referenceRatio(const Topology& t1, const Topology& t2) {
    struct View {
        std::vector<Point> points;
        std::vector<SimilarityVector> svs;
        steiner::TopoStructure st;
    };
    const auto makeView = [](const Topology& t) {
        View v;
        v.st = t.structure();
        int driverNode = -1;
        for (size_t i = 0; i < v.st.nodes.size(); ++i) {
            v.points.push_back(v.st.nodes[i].pt);
            if (v.st.nodes[i].pinIndex == t.driverIndex()) {
                driverNode = static_cast<int>(i);
            }
        }
        const int weight = static_cast<int>(v.points.size()) + 1;
        for (size_t i = 0; i < v.points.size(); ++i) {
            v.svs.push_back(weightedSimilarity(v.points, static_cast<int>(i),
                                               driverNode, weight));
        }
        return v;
    };
    const View a = makeView(t1);
    const View b = makeView(t2);
    const int nrc = std::min(a.st.numRCs(), b.st.numRCs());
    if (nrc == 0) return 1.0;
    std::vector<int> match(a.points.size(), -1);
    for (size_t i = 0; i < a.points.size(); ++i) {
        long bestKey = std::numeric_limits<long>::max();
        for (size_t j = 0; j < b.points.size(); ++j) {
            const long key =
                static_cast<long>(svDistance(a.svs[i], b.svs[j])) * 1000000 +
                manhattan(a.points[i], b.points[j]);
            if (key < bestKey) {
                bestKey = key;
                match[i] = static_cast<int>(j);
            }
        }
    }
    std::set<std::pair<int, int>> rcSet;
    for (const auto& [u, v] : b.st.rcs) {
        rcSet.insert({std::min(u, v), std::max(u, v)});
    }
    int matched = 0;
    for (const auto& [u, v] : a.st.rcs) {
        const int mu = match[static_cast<size_t>(u)];
        const int mv = match[static_cast<size_t>(v)];
        if (mu != mv && rcSet.contains({std::min(mu, mv), std::max(mu, mv)})) {
            ++matched;
        }
    }
    return std::min(1.0, static_cast<double>(matched) / nrc);
}

/// A random tree-ish topology: 1-5 pins joined to the driver by L-shapes
/// (a single pin gives a wireless, zero-RC topology).
Topology randomTopology(std::mt19937* rng) {
    std::uniform_int_distribution<int> coord(0, 12);
    std::uniform_int_distribution<int> numPins(1, 5);
    std::bernoulli_distribution coin(0.5);
    std::vector<Point> pins;
    const int n = numPins(*rng);
    for (int k = 0; k < n; ++k) pins.push_back({coord(*rng), coord(*rng)});
    Topology t(pins, 0);
    for (size_t k = 1; k < pins.size(); ++k) {
        const Point a = pins[0];
        const Point b = pins[k];
        if (a == b) continue;
        t.addLShape(a, b, coin(*rng) ? Point{b.x, a.y} : Point{a.x, b.y});
    }
    return t;
}

TEST(RegularityView, MatchesTopologyOverloadOnRandomPairs) {
    std::mt19937 rng(20170618);
    std::vector<Topology> topos;
    topos.push_back(Topology({{3, 3}}, 0));          // single point
    topos.push_back(Topology({{3, 3}, {3, 3}}, 0));  // coincident pins
    for (int k = 0; k < 60; ++k) topos.push_back(randomTopology(&rng));
    std::vector<RegularityView> views;
    for (const Topology& t : topos) views.emplace_back(t);
    int zeroRc = 0;
    for (size_t i = 0; i < topos.size(); ++i) {
        if (views[i].rcs.empty()) ++zeroRc;
        for (size_t j = 0; j < topos.size(); ++j) {
            const double fromTopos = regularityRatio(topos[i], topos[j]);
            // Bit-exact: the clustering memo and buildProblem's pair
            // blocks depend on it.
            EXPECT_EQ(regularityRatio(views[i], views[j]), fromTopos)
                << i << " vs " << j;
            EXPECT_EQ(referenceRatio(topos[i], topos[j]), fromTopos)
                << i << " vs " << j;
        }
    }
    EXPECT_GE(zeroRc, 2);
}

TEST(GroupRegularity, SingleObjectIsOne) {
    const Topology a = lTopo({0, 0}, {5, 5}, true);
    EXPECT_DOUBLE_EQ(groupRegularity({&a}), 1.0);
    EXPECT_DOUBLE_EQ(groupRegularity({}), 1.0);
}

TEST(GroupRegularity, AveragesPairs) {
    const Topology a = lTopo({0, 0}, {6, 4}, true);
    const Topology b = lTopo({0, 10}, {6, 14}, true);   // same shape as a
    Topology c({{0, 20}, {0, 28}}, 0);                  // vertical straight
    c.addSegment({{0, 20}, {0, 28}});
    const double rAB = regularityRatio(a, b);
    const double rAC = regularityRatio(a, c);
    const double rBC = regularityRatio(b, c);
    const double expected = (rAB + rAC + rBC) / 3.0;
    EXPECT_NEAR(groupRegularity({&a, &b, &c}), expected, 1e-12);
    EXPECT_DOUBLE_EQ(rAB, 1.0);
}

}  // namespace
}  // namespace streak

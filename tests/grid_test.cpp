#include "grid/routing_grid.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>

namespace streak::grid {
namespace {

TEST(RoutingGrid, AlternatingLayerDirections) {
    const RoutingGrid g(8, 8, 4, 10);
    EXPECT_EQ(g.layerDir(0), Dir::Horizontal);
    EXPECT_EQ(g.layerDir(1), Dir::Vertical);
    EXPECT_EQ(g.layerDir(2), Dir::Horizontal);
    EXPECT_EQ(g.layerDir(3), Dir::Vertical);
    EXPECT_EQ(g.layersOf(Dir::Horizontal), (std::vector<int>{0, 2}));
    EXPECT_EQ(g.layersOf(Dir::Vertical), (std::vector<int>{1, 3}));
}

TEST(RoutingGrid, EdgeCountPerLayer) {
    const RoutingGrid g(5, 3, 2, 1);
    // Horizontal layer: (5-1)*3 = 12 edges; vertical: 5*(3-1) = 10.
    EXPECT_EQ(g.numEdges(), 22);
}

TEST(RoutingGrid, EdgeIdsAreUniqueAndInvertible) {
    const RoutingGrid g(6, 4, 3, 2);
    std::set<int> ids;
    for (int l = 0; l < g.numLayers(); ++l) {
        for (int y = 0; y < g.height(); ++y) {
            for (int x = 0; x < g.width(); ++x) {
                if (!g.validEdge(l, x, y)) continue;
                const int e = g.edgeId(l, x, y);
                EXPECT_TRUE(ids.insert(e).second) << "duplicate id " << e;
                const auto c = g.edgeCoord(e);
                EXPECT_EQ(c.layer, l);
                EXPECT_EQ(c.x, x);
                EXPECT_EQ(c.y, y);
            }
        }
    }
    EXPECT_EQ(static_cast<int>(ids.size()), g.numEdges());
}

TEST(RoutingGrid, ValidEdgeRespectsDirectionBounds) {
    const RoutingGrid g(4, 4, 2, 1);
    EXPECT_TRUE(g.validEdge(0, 2, 3));   // horizontal: x < w-1
    EXPECT_FALSE(g.validEdge(0, 3, 3));  // x == w-1 is out
    EXPECT_TRUE(g.validEdge(1, 3, 2));   // vertical: y < h-1
    EXPECT_FALSE(g.validEdge(1, 3, 3));
    EXPECT_FALSE(g.validEdge(2, 0, 0));  // layer out of range
}

TEST(RoutingGrid, BlockageReducesCapacity) {
    RoutingGrid g(8, 8, 2, 10);
    g.addBlockage({{2, 2}, {4, 4}}, 0, 1);
    EXPECT_EQ(g.capacity(g.edgeId(0, 3, 3)), 1);
    EXPECT_EQ(g.capacity(g.edgeId(0, 5, 3)), 10);
    EXPECT_EQ(g.capacity(g.edgeId(1, 3, 3)), 10);  // other layer untouched
}

TEST(RoutingGrid, BlockageNeverRaisesCapacity) {
    RoutingGrid g(8, 8, 2, 3);
    g.addBlockage({{0, 0}, {7, 7}}, 0, 5);
    EXPECT_EQ(g.capacity(g.edgeId(0, 1, 1)), 3);
}

TEST(RoutingGrid, RectanglesBeyondTheGridAreClipped) {
    // Corners at the int extremes must neither spin through billions of
    // off-grid cells nor overflow the loop counter at INT_MAX.
    constexpr int kMax = std::numeric_limits<int>::max();
    constexpr int kMin = std::numeric_limits<int>::min();
    const geom::Rect huge{{kMin, kMin}, {kMax, kMax}};
    RoutingGrid g(8, 8, 2, 10);
    g.addBlockage(huge, 0, 1);
    g.resizeCapacity(huge, 1, 4);
    g.setViaCapacity(6);
    g.addViaBlockage(huge, 2);
    for (int e = 0; e < g.numEdges(); ++e) {
        EXPECT_EQ(g.capacity(e), g.edgeCoord(e).layer == 0 ? 1 : 4);
    }
    for (int c = 0; c < g.numCells(); ++c) EXPECT_EQ(g.viaCapacity(c), 2);
}

TEST(RoutingGrid, EdgesOnSegment) {
    const RoutingGrid g(8, 8, 2, 10);
    const auto h = g.edgesOnSegment({{1, 3}, {4, 3}}, 0);
    EXPECT_EQ(h.size(), 3u);
    const auto v = g.edgesOnSegment({{2, 6}, {2, 1}}, 1);
    EXPECT_EQ(v.size(), 5u);
    EXPECT_TRUE(g.edgesOnSegment({{2, 2}, {2, 2}}, 0).empty());
}

TEST(RoutingGrid, RejectsDegenerateDimensions) {
    EXPECT_THROW(RoutingGrid(1, 8, 2, 1), std::invalid_argument);
    EXPECT_THROW(RoutingGrid(8, 8, 1, 1), std::invalid_argument);
}

TEST(EdgeUsage, TracksOverflow) {
    RoutingGrid g(4, 4, 2, 2);
    EdgeUsage u(g);
    const int e = g.edgeId(0, 1, 1);
    EXPECT_EQ(u.totalOverflow(), 0);
    u.add(e, 2);
    EXPECT_EQ(u.remaining(e), 0);
    EXPECT_EQ(u.totalOverflow(), 0);
    u.add(e, 3);
    EXPECT_EQ(u.totalOverflow(), 3);
    EXPECT_EQ(u.overflowedEdges(), 1);
    u.remove(e, 4);
    EXPECT_EQ(u.usage(e), 1);
    EXPECT_EQ(u.totalOverflow(), 0);
}

TEST(EdgeUsage, ClearResets) {
    RoutingGrid g(4, 4, 2, 2);
    EdgeUsage u(g);
    u.add(g.edgeId(0, 0, 0), 5);
    u.clear();
    EXPECT_EQ(u.usage(g.edgeId(0, 0, 0)), 0);
}

TEST(RoutingGrid, LayerOffsetsAreContiguousPerDirection) {
    const RoutingGrid g(7, 5, 4, 1);
    EXPECT_EQ(g.layerOffset(0), 0);
    for (int l = 0; l < g.numLayers(); ++l) {
        // The in-layer layout depends only on the direction.
        const int sameDir = l >= 2 ? l - 2 : l + 2;
        EXPECT_EQ(g.edgeId(l, 2, 3) - g.layerOffset(l),
                  g.edgeId(sameDir, 2, 3) - g.layerOffset(sameDir));
        // Each layer's ids end where the next layer's begin.
        const int end = l + 1 < g.numLayers() ? g.layerOffset(l + 1)
                                              : g.numEdges();
        const int last = g.layerDir(l) == Dir::Horizontal
                             ? g.edgeId(l, g.width() - 2, g.height() - 1)
                             : g.edgeId(l, g.width() - 1, g.height() - 2);
        EXPECT_EQ(last + 1, end);
    }
}

}  // namespace
}  // namespace streak::grid

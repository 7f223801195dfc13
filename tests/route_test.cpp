// Tests for the maze router and the sequential baseline.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "gen/generator.hpp"
#include "maze_oracle.hpp"
#include "route/maze.hpp"
#include "route/sequential.hpp"
#include "test_util.hpp"

namespace streak::route {
namespace {

using geom::Point;

TEST(MazeRouter, TwoPinShortestPath) {
    grid::RoutingGrid g(16, 16, 2, 4);
    grid::EdgeUsage usage(g);
    MazeRouter router(&usage);
    const auto net = router.route({{2, 3}, {9, 8}}, 0);
    ASSERT_TRUE(net.has_value());
    EXPECT_EQ(net->wirelength2d, 12);  // Manhattan distance
    // Usage was committed.
    long used = 0;
    for (int e = 0; e < g.numEdges(); ++e) used += usage.usage(e);
    EXPECT_EQ(used, 12);
}

TEST(MazeRouter, MultiPinTreeSharesTrunk) {
    grid::RoutingGrid g(20, 20, 2, 8);
    grid::EdgeUsage usage(g);
    MazeRouter router(&usage);
    // Driver plus two sinks on the same row: wire must not double-count.
    const auto net = router.route({{2, 5}, {10, 5}, {16, 5}}, 0);
    ASSERT_TRUE(net.has_value());
    EXPECT_EQ(net->wirelength2d, 14);  // one straight trunk
}

TEST(MazeRouter, AvoidsFullEdges) {
    grid::RoutingGrid g(8, 8, 2, 1);
    grid::EdgeUsage usage(g);
    // Wall off the direct row.
    for (int x = 2; x < 5; ++x) usage.add(g.edgeId(0, x, 3), 1);
    MazeRouter router(&usage);
    const auto net = router.route({{1, 3}, {6, 3}}, 0);
    ASSERT_TRUE(net.has_value());
    EXPECT_GT(net->wirelength2d, 5);  // must detour around the wall
    EXPECT_EQ(usage.totalOverflow(), 0);
}

TEST(MazeRouter, FailsWhenFullyBlocked) {
    grid::RoutingGrid g(8, 8, 2, 1);
    // Vertical cut at x = 3..4 on all layers.
    for (int y = 0; y < 8; ++y) {
        g.addBlockage({{3, y}, {4, y}}, 0, 0);
    }
    for (int x = 0; x < 8; ++x) {
        for (int y = 0; y < 7; ++y) {
            if (x >= 3 && x <= 4) g.addBlockage({{x, y}, {x, y}}, 1, 0);
        }
    }
    grid::EdgeUsage usage(g);
    MazeRouter router(&usage);
    const auto net = router.route({{1, 4}, {6, 4}}, 0);
    EXPECT_FALSE(net.has_value());
    // Rollback: nothing committed.
    for (int e = 0; e < g.numEdges(); ++e) EXPECT_EQ(usage.usage(e), 0);
}

TEST(MazeRouter, CongestionPenaltySpreadsRoutes) {
    grid::RoutingGrid g(10, 10, 2, 2);
    grid::EdgeUsage usage(g);
    MazeOptions opts;
    opts.congestionPenalty = 50.0;
    MazeRouter router(&usage, opts);
    // Route three identical nets; they should spread across rows and
    // never overflow.
    for (int i = 0; i < 3; ++i) {
        const auto net = router.route({{1, 5}, {8, 5}}, 0);
        ASSERT_TRUE(net.has_value());
    }
    EXPECT_EQ(usage.totalOverflow(), 0);
}


TEST(MazeRouter, AllowOverflowKeepsRoutingThroughFullEdges) {
    grid::RoutingGrid g(8, 8, 2, 1);
    grid::EdgeUsage usage(g);
    // Saturate every horizontal edge of rows 0..7 except leave no free
    // row: the direct path must overflow somewhere.
    for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 7; ++x) usage.add(g.edgeId(0, x, y), 1);
    }
    MazeOptions opts;
    opts.allowOverflow = true;
    MazeRouter router(&usage, opts);
    const auto net = router.route({{1, 3}, {6, 3}}, 0);
    ASSERT_TRUE(net.has_value());
    EXPECT_GT(usage.totalOverflow(), 0);
}

TEST(MazeRouter, OverflowNeverCrossesHardBlockages) {
    grid::RoutingGrid g(8, 8, 2, 1);
    // Capacity-0 wall: even with allowOverflow, impassable.
    for (int y = 0; y < 8; ++y) g.addBlockage({{3, y}, {4, y}}, 0, 0);
    for (int x = 0; x < 8; ++x) {
        for (int y = 0; y < 7; ++y) {
            if (x >= 3 && x <= 4) g.addBlockage({{x, y}, {x, y}}, 1, 0);
        }
    }
    grid::EdgeUsage usage(g);
    MazeOptions opts;
    opts.allowOverflow = true;
    MazeRouter router(&usage, opts);
    EXPECT_FALSE(router.route({{1, 4}, {6, 4}}, 0).has_value());
}

// ---------------------------------------------------------------------------
// A* + search-window vs plain-Dijkstra oracle
// ---------------------------------------------------------------------------

/// One randomized routing scenario, replayed identically per variant.
struct MazeScenario {
    int w = 0;
    int h = 0;
    int layers = 0;
    int capacity = 1;
    std::vector<std::pair<Point, Point>> blockRects;  // layer-0 rects
    std::vector<int> preUsedEdges;
    std::vector<std::vector<Point>> nets;  // driver is pin 0
};

MazeScenario randomScenario(std::mt19937* rng) {
    MazeScenario s;
    std::uniform_int_distribution<int> dim(12, 28);
    std::uniform_int_distribution<int> layerCount(2, 4);
    std::uniform_int_distribution<int> cap(1, 3);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    s.w = dim(*rng);
    s.h = dim(*rng);
    s.layers = layerCount(*rng);
    s.capacity = cap(*rng);
    std::uniform_int_distribution<int> px(0, s.w - 1);
    std::uniform_int_distribution<int> py(0, s.h - 1);
    const int rects = static_cast<int>(unit(*rng) * 4.0);
    for (int i = 0; i < rects; ++i) {
        const int x0 = px(*rng);
        const int y0 = py(*rng);
        const int x1 = std::min(s.w - 1, x0 + static_cast<int>(unit(*rng) * 6));
        const int y1 = std::min(s.h - 1, y0 + static_cast<int>(unit(*rng) * 6));
        s.blockRects.push_back({{x0, y0}, {x1, y1}});
    }
    const int nets = 2 + static_cast<int>(unit(*rng) * 2.0);
    for (int n = 0; n < nets; ++n) {
        std::vector<Point> pins;
        const int pinCount = 2 + static_cast<int>(unit(*rng) * 3.0);
        for (int p = 0; p < pinCount; ++p) pins.push_back({px(*rng), py(*rng)});
        s.nets.push_back(std::move(pins));
    }
    return s;
}

/// Replay a scenario under the given search options, through the
/// production router or the full-grid Dijkstra oracle; pre-existing
/// congestion is seeded deterministically from the scenario.
struct ReplayResult {
    std::vector<bool> routed;
    std::vector<std::vector<int>> edges;
    std::vector<int> wirelength;
    std::vector<int> vias;
    long long totalUsage = 0;
};

ReplayResult replay(const MazeScenario& s, const MazeOptions& opts,
                    bool oracle = false) {
    grid::RoutingGrid g(s.w, s.h, s.layers, s.capacity);
    for (const auto& [lo, hi] : s.blockRects) g.addBlockage({lo, hi}, 0, 0);
    grid::EdgeUsage usage(g);
    // Deterministic pre-congestion: saturate a pseudo-random edge subset.
    std::mt19937 congestion(s.w * 1000 + s.h);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int e = 0; e < g.numEdges(); ++e) {
        if (unit(congestion) < 0.15) usage.add(e, 1);
    }
    MazeRouter router(&usage, opts);
    ReplayResult r;
    for (const auto& pins : s.nets) {
        const auto net = oracle ? testoracle::routeDijkstra(&usage, pins, 0, opts)
                                : router.route(pins, 0);
        r.routed.push_back(net.has_value());
        r.edges.push_back(net ? net->edges : std::vector<int>{});
        r.wirelength.push_back(net ? net->wirelength2d : -1);
        r.vias.push_back(net ? net->viaCount : -1);
    }
    for (int e = 0; e < g.numEdges(); ++e) r.totalUsage += usage.usage(e);
    return r;
}

TEST(MazeOracle, AstarAndWindowMatchDijkstraOnRandomGrids) {
    std::mt19937 rng(987654);
    for (int trial = 0; trial < 12; ++trial) {
        const MazeScenario s = randomScenario(&rng);
        MazeOptions defaults;
        MazeOptions tiny;
        tiny.windowMargin = 2;  // force growth on detours
        for (const MazeOptions& opts : {defaults, tiny}) {
            const ReplayResult oracle = replay(s, opts, /*oracle=*/true);
            const ReplayResult got = replay(s, opts);
            ASSERT_EQ(got.routed, oracle.routed) << "trial " << trial;
            ASSERT_EQ(got.edges, oracle.edges) << "trial " << trial;
            EXPECT_EQ(got.wirelength, oracle.wirelength) << "trial " << trial;
            EXPECT_EQ(got.vias, oracle.vias) << "trial " << trial;
            EXPECT_EQ(got.totalUsage, oracle.totalUsage) << "trial " << trial;
        }
    }
}

TEST(MazeOracle, CongestedRunsMatchWithOverflowAllowed) {
    std::mt19937 rng(13579);
    for (int trial = 0; trial < 6; ++trial) {
        const MazeScenario s = randomScenario(&rng);
        MazeOptions opts;
        opts.allowOverflow = true;
        opts.congestionPenalty = 20.0;
        opts.windowMargin = 3;
        const ReplayResult oracle = replay(s, opts, /*oracle=*/true);
        const ReplayResult got = replay(s, opts);
        ASSERT_EQ(got.edges, oracle.edges) << "trial " << trial;
        EXPECT_EQ(got.wirelength, oracle.wirelength) << "trial " << trial;
        EXPECT_EQ(got.vias, oracle.vias) << "trial " << trial;
    }
}

TEST(MazeOracle, WindowGrowsToReachSinkBehindLongWall) {
    // The direct corridor is walled off far beyond the initial margin:
    // the path must detour above y = 30 while the tree-bbox window
    // starts as a sliver around y = 5. The progressive window must keep
    // growing (or fall back to full grid) and still find the oracle path.
    const auto build = [](bool oracle) {
        grid::RoutingGrid g(40, 40, 2, 1);
        for (int y = 0; y <= 30; ++y) g.addBlockage({{12, y}, {14, y}}, 0, 0);
        for (int x = 12; x <= 14; ++x) {
            for (int y = 0; y <= 30; ++y) g.addBlockage({{x, y}, {x, y}}, 1, 0);
        }
        grid::EdgeUsage usage(g);
        MazeOptions opts;
        opts.windowMargin = 2;
        MazeRouter router(&usage, opts);
        return oracle ? testoracle::routeDijkstra(&usage, {{5, 5}, {30, 5}}, 0)
                      : router.route({{5, 5}, {30, 5}}, 0);
    };
    const auto oracle = build(true);
    const auto got = build(false);
    ASSERT_TRUE(oracle.has_value());
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->edges, oracle->edges);
    EXPECT_EQ(got->wirelength2d, oracle->wirelength2d);
    EXPECT_EQ(got->viaCount, oracle->viaCount);
    // Sanity: the detour really is long (out and back around the wall).
    EXPECT_GE(got->wirelength2d, 25 + 2 * 25);
}

TEST(MazeOracle, WindowedSearchStillFailsCleanlyWhenBlocked) {
    // Same geometry as FailsWhenFullyBlocked, but with a tiny window:
    // the search must grow through its windows, fall back to the full
    // grid, and still report failure with nothing committed.
    grid::RoutingGrid g(8, 8, 2, 1);
    for (int y = 0; y < 8; ++y) g.addBlockage({{3, y}, {4, y}}, 0, 0);
    for (int x = 0; x < 8; ++x) {
        for (int y = 0; y < 7; ++y) {
            if (x >= 3 && x <= 4) g.addBlockage({{x, y}, {x, y}}, 1, 0);
        }
    }
    grid::EdgeUsage usage(g);
    MazeOptions opts;
    opts.windowMargin = 1;
    MazeRouter router(&usage, opts);
    EXPECT_FALSE(router.route({{1, 4}, {6, 4}}, 0).has_value());
    EXPECT_FALSE(testoracle::routeDijkstra(&usage, {{1, 4}, {6, 4}}, 0));
    for (int e = 0; e < g.numEdges(); ++e) EXPECT_EQ(usage.usage(e), 0);
}

TEST(MazeOracle, SharedScratchMatchesPrivateScratch) {
    // Caller-owned SearchState reused across many nets must not leak
    // state between route() calls.
    std::mt19937 rng(24680);
    const MazeScenario s = randomScenario(&rng);
    const MazeOptions opts;
    const ReplayResult internalScratch = replay(s, opts);

    grid::RoutingGrid g(s.w, s.h, s.layers, s.capacity);
    for (const auto& [lo, hi] : s.blockRects) g.addBlockage({lo, hi}, 0, 0);
    grid::EdgeUsage usage(g);
    std::mt19937 congestion(s.w * 1000 + s.h);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int e = 0; e < g.numEdges(); ++e) {
        if (unit(congestion) < 0.15) usage.add(e, 1);
    }
    MazeRouter router(&usage, opts);
    SearchState shared;
    for (size_t n = 0; n < s.nets.size(); ++n) {
        const auto net = router.route(s.nets[n], 0, &shared);
        ASSERT_EQ(net.has_value(), internalScratch.routed[n]) << "net " << n;
        if (net) {
            EXPECT_EQ(net->edges, internalScratch.edges[n]) << "net " << n;
        }
    }
}

TEST(SequentialRouter, RoutesFullDesign) {
    const Design d = gen::makeSynth(1);
    const SequentialResult r = routeSequential(d);
    EXPECT_EQ(r.totalBits, d.numNets());
    EXPECT_GT(r.routability(), 0.95);
    EXPECT_GT(r.wirelength, 0);
    EXPECT_EQ(r.usage.totalOverflow(), 0);
}

TEST(SequentialRouter, WirelengthNearSteinerOptimal) {
    // Uncongested single group: maze wire-length should be close to the
    // sum of per-bit RSMT lengths.
    const Design d = testutil::makeDesign(
        {testutil::makeBusGroup({{2, 4}, {14, 4}}, 4, 0, 1)});
    const SequentialResult r = routeSequential(d);
    EXPECT_EQ(r.routedBits, 4);
    EXPECT_EQ(r.wirelength, 4 * 12);
}

TEST(SequentialRouter, DeterministicAcrossRuns) {
    const Design d = gen::makeSynth(1);
    const SequentialResult a = routeSequential(d);
    const SequentialResult b = routeSequential(d);
    EXPECT_EQ(a.wirelength, b.wirelength);
    EXPECT_EQ(a.routedBits, b.routedBits);
}

}  // namespace
}  // namespace streak::route

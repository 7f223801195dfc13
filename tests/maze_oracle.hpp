// Test oracle for the maze router: a plain full-grid Dijkstra. Same
// edge-cost model, nearest-first sink order, pin-column tree extension,
// (g, node) pop order and smallest-predecessor equal-cost parent rule as
// src/route/maze.cpp, but with no epoch-stamped scratch, no search
// window and no heuristic. The production A* + window search must commit
// the same edges for every net (route_test's MazeOracle suite);
// micro_kernels times both side by side.
// Header-only and test-only: no production target includes it.
#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "geom/point.hpp"
#include "grid/routing_grid.hpp"
#include "route/maze.hpp"

namespace streak::testoracle {

/// Route a multi-pin net from `driver` through every other pin, sinks
/// nearest to the driver first; on success the edges are committed to
/// `usage`, on failure nothing is.
inline std::optional<route::RoutedNet> routeDijkstra(
    grid::EdgeUsage* usage, const std::vector<geom::Point>& pins, int driver,
    const route::MazeOptions& opts = {}) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const grid::RoutingGrid& g = usage->grid();
    const int W = g.width();
    const int H = g.height();
    const int L = g.numLayers();
    const auto nodeId = [&](int x, int y, int l) { return (l * H + y) * W + x; };
    const auto edgeCost = [&](int edge) -> double {
        if (usage->remaining(edge) < 1) {
            if (!opts.allowOverflow || g.capacity(edge) == 0) return kInf;
            return opts.overflowCost;
        }
        const double cap = std::max(1, g.capacity(edge));
        const double ratio = static_cast<double>(usage->usage(edge)) / cap;
        return 1.0 + opts.congestionPenalty * ratio * ratio;
    };

    std::vector<bool> inTree(static_cast<size_t>(W * H * L), false);
    const geom::Point root = pins[static_cast<size_t>(driver)];
    for (int l = 0; l < L; ++l) inTree[static_cast<size_t>(nodeId(root.x, root.y, l))] = true;

    std::vector<int> order;
    for (int i = 0; i < static_cast<int>(pins.size()); ++i) {
        if (i != driver) order.push_back(i);
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        const int da = manhattan(pins[static_cast<size_t>(a)], root);
        const int db = manhattan(pins[static_cast<size_t>(b)], root);
        return da != db ? da < db : a < b;
    });

    route::RoutedNet net;
    std::vector<int> committed;
    for (const int target : order) {
        const geom::Point tp = pins[static_cast<size_t>(target)];
        if (inTree[static_cast<size_t>(nodeId(tp.x, tp.y, 0))]) continue;

        std::vector<double> dist(inTree.size(), kInf);
        std::vector<int> parent(inTree.size(), -1);
        std::vector<int> parentEdge(inTree.size(), -1);
        using Entry = std::pair<double, int>;  // (g, node)
        std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
        for (size_t n = 0; n < inTree.size(); ++n) {
            if (!inTree[n]) continue;
            dist[n] = 0.0;
            heap.push({0.0, static_cast<int>(n)});
        }
        int reached = -1;
        while (!heap.empty()) {
            const auto [d, node] = heap.top();
            heap.pop();
            if (d > dist[static_cast<size_t>(node)]) continue;
            const int x = node % W;
            const int y = (node / W) % H;
            const int l = node / (W * H);
            if (x == tp.x && y == tp.y) {
                reached = node;
                break;
            }
            const auto relax = [&](int nn, double cost, int edge) {
                const double nd = d + cost;
                const size_t sn = static_cast<size_t>(nn);
                if (nd < dist[sn]) {
                    dist[sn] = nd;
                    parent[sn] = node;
                    parentEdge[sn] = edge;
                    heap.push({nd, nn});
                } else if (nd == dist[sn] && cost > 0.0 && node < parent[sn]) {
                    parent[sn] = node;  // smallest equal-cost predecessor
                    parentEdge[sn] = edge;
                }
            };
            const bool horizontal = g.layerDir(l) == grid::Dir::Horizontal;
            const int dx = horizontal ? 1 : 0;
            const int dy = horizontal ? 0 : 1;
            if (x + dx < W && y + dy < H) {
                const int e = g.edgeId(l, x, y);
                const double c = edgeCost(e);
                if (c < kInf) relax(nodeId(x + dx, y + dy, l), c, e);
            }
            if (x - dx >= 0 && y - dy >= 0) {
                const int e = g.edgeId(l, x - dx, y - dy);
                const double c = edgeCost(e);
                if (c < kInf) relax(nodeId(x - dx, y - dy, l), c, e);
            }
            if (l + 1 < L) relax(nodeId(x, y, l + 1), opts.viaCost, -1);
            if (l > 0) relax(nodeId(x, y, l - 1), opts.viaCost, -1);
        }
        if (reached < 0) {
            for (const int e : committed) usage->remove(e, 1);
            return std::nullopt;
        }
        for (int n = reached;
             parent[static_cast<size_t>(n)] >= 0 && !inTree[static_cast<size_t>(n)];
             n = parent[static_cast<size_t>(n)]) {
            const int e = parentEdge[static_cast<size_t>(n)];
            if (e >= 0) {
                usage->add(e, 1);
                committed.push_back(e);
                net.edges.push_back(e);
                ++net.wirelength2d;
            } else {
                ++net.viaCount;
            }
            inTree[static_cast<size_t>(n)] = true;
        }
        for (int l = 0; l < L; ++l) inTree[static_cast<size_t>(nodeId(tp.x, tp.y, l))] = true;
    }
    return net;
}

}  // namespace streak::testoracle

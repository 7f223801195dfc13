// Congestion-aware 3-D maze router: A* over the layered grid.
//
// Substrate for the baseline "manual design" surrogate: multi-terminal
// nets are routed pin-by-pin onto the layered grid, with per-edge wire
// cost, via cost, and a soft congestion penalty that steers paths away
// from nearly-full edges. Full edges are hard-avoided.
//
// Two hot-path optimizations over the naive Dijkstra formulation, both
// exact (DESIGN.md "Performance" for the arguments):
//
//   A* heuristic       admissible+consistent lower bound (Manhattan wire
//                      distance plus the minimum via count forced by the
//                      layer directions), with deterministic
//                      (f, g, node) pop ordering and a canonical
//                      equal-cost parent rule, so the routed tree is a
//                      pure function of the cost field — byte-identical
//                      to a plain Dijkstra search
//   search window      search restricted to the bounding box of the
//                      partial tree plus the sink, inflated by a margin
//                      that doubles until the window-optimal path is
//                      *provably* grid-optimal (found cost strictly
//                      below the best f-value pruned at the window
//                      boundary) — never changes the outcome of a
//                      routable sink, and unreachable sinks still fail
//
// Per-search state (distance / parent labels, the heap) lives in an
// epoch-stamped SearchState scratch object that is reused across sinks
// and across route() calls instead of being reallocated and O(W*H*L)
// re-filled per sink. MazeRouter owns one by default; callers running
// one router per worker thread can pass their own.
//
// The plain full-grid Dijkstra both rewrites are checked against lives
// with the tests (tests/maze_oracle.hpp), not in the library.
#pragma once

#include <optional>
#include <vector>

#include "geom/point.hpp"
#include "grid/routing_grid.hpp"
#include "robust/control.hpp"

namespace streak::route {

struct MazeOptions {
    double viaCost = 2.0;
    /// Extra cost multiplier as an edge approaches capacity:
    /// cost *= 1 + congestionPenalty * (usage / capacity)^2.
    double congestionPenalty = 4.0;
    /// When true, full edges stay usable at `overflowCost` instead of
    /// being forbidden — models a hand design that overshoots capacity in
    /// hotspots (the Fig. 11(a)/12(a) behaviour) rather than detouring.
    bool allowOverflow = false;
    double overflowCost = 8.0;

    /// Initial search-window inflation margin in G-Cells around the
    /// partial tree and the sink; each retry doubles it.
    int windowMargin = 8;

    /// Deadline/cancellation ticket polled every ~1024 heap pops (idle
    /// by default; never influences pop order or the routed tree).
    robust::Ticket control;
};

/// One routed net: the 3-D edges used (grid edge ids), plus summary
/// numbers. Vias are implicit (layer changes at shared (x, y) columns).
struct RoutedNet {
    std::vector<int> edges;  // 3-D routing edge ids (committed to usage)
    int wirelength2d = 0;
    int viaCount = 0;
};

/// Epoch-stamped per-search scratch: node labels survive across searches
/// and are invalidated by bumping the epoch instead of O(numNodes)
/// std::fill per sink. One instance per concurrently-searching thread;
/// reusable across nets and grids (arrays grow lazily).
class SearchState {
public:
    /// Size the label arrays for `numNodes` grid nodes (no-op when
    /// already large enough; resets the epochs when the grid grew).
    void ensure(int numNodes);

private:
    friend class MazeRouter;

    struct HeapEntry {
        double f;  // g + heuristic
        double g;  // cost from the tree
        int node;
    };

    // Per-node labels, valid only where stamp == searchEpoch.
    std::vector<int> stamp_;
    std::vector<double> dist_;
    std::vector<int> parent_;
    std::vector<int> parentEdge_;
    // Tree membership per route() call, valid where treeStamp == netEpoch.
    std::vector<int> treeStamp_;
    std::vector<int> treeNodes_;
    std::vector<int> committed_;  // edges committed for the current net
    std::vector<HeapEntry> heap_;
    int searchEpoch_ = 0;
    int netEpoch_ = 0;
};

class MazeRouter {
public:
    MazeRouter(grid::EdgeUsage* usage, const MazeOptions& opts = {})
        : usage_(usage), opts_(opts) {}

    /// Route a multi-pin net: connects all pins into one tree, starting
    /// from `driver`. Pins are 2-D; any layer above a pin is reachable
    /// (via stacks are free in distance but charged viaCost each level).
    /// On success the path is committed to the usage map.
    [[nodiscard]] std::optional<RoutedNet> route(
        const std::vector<geom::Point>& pins, int driver);

    /// Same, searching through caller-owned scratch (one SearchState per
    /// worker thread when routers share a thread pool).
    [[nodiscard]] std::optional<RoutedNet> route(
        const std::vector<geom::Point>& pins, int driver, SearchState* state);

private:
    grid::EdgeUsage* usage_;
    MazeOptions opts_;
    SearchState scratch_;  // default scratch for the single-thread case
};

}  // namespace streak::route

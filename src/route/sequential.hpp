// Sequential bit-by-bit group router: the "manual design" surrogate.
//
// This is the classic-bus-router baseline the paper's evaluation compares
// against (Table I "Manual Design"): every bit is routed individually for
// minimum wire-length with congestion-aware maze routing, with no
// interbit regularity objective. It doubles as the ICC-style finishing
// pass for groups Streak leaves unrouted.
#pragma once

#include "core/signal.hpp"
#include "grid/routing_grid.hpp"
#include "route/maze.hpp"

namespace streak::route {

struct SequentialResult {
    grid::EdgeUsage usage;
    int totalBits = 0;
    int routedBits = 0;
    long wirelength = 0;  // 2-D, routed bits only + RSMT estimate for rest
    long viaCount = 0;
    double seconds = 0.0;

    explicit SequentialResult(const grid::RoutingGrid& grid) : usage(grid) {}

    [[nodiscard]] double routability() const {
        return totalBits == 0 ? 1.0
                              : static_cast<double>(routedBits) / totalBits;
    }
};

/// Route every bit of the design sequentially (group order, bit order):
/// a min-wire-length pattern route first, the maze search as fallback.
[[nodiscard]] SequentialResult routeSequential(const Design& design,
                                               const MazeOptions& opts = {});

}  // namespace streak::route

// 3-D route candidates for routing objects.
//
// Every backbone is expanded per bit (equivalent topologies) and onto
// pairs of uni-directional layers; the result carries its cost c(i, j)
// and per-edge track demand u_el(i, j) used by formulation (3).
#pragma once

#include <memory>
#include <vector>

#include "core/identify.hpp"
#include "core/options.hpp"
#include "core/signal.hpp"
#include "steiner/topology.hpp"

namespace streak {

/// The layer-independent part of a candidate: one backbone, its bits'
/// equivalent topologies and their demand. Built once per backbone and
/// shared (immutable) by every layer-pair expansion of that backbone.
struct CandidateShape {
    steiner::Topology backbone;
    /// Equivalent topologies, aligned with object.bitIndices.
    std::vector<steiner::Topology> bitTopologies;
    /// Via-slot demand per G-Cell (pin access stacks + layer-change
    /// points): sorted (cellIndex, slots) pairs. Only enforced when the
    /// grid's via model is enabled.
    std::vector<std::pair<int, int>> viaUse;
    long wirelength2d = 0;  // total over bits
    int viaCount = 0;       // total over bits (bends + pin stacks)
};

struct RouteCandidate {
    int backboneId = 0;  // which backbone this candidate came from
    std::shared_ptr<const CandidateShape> shape;
    int hLayer = 0;  // layer of all horizontal trunks
    int vLayer = 1;  // layer of all vertical trunks
    double cost = 0.0;  // c(i, j)
    /// Track demand per 3-D edge: sorted (edgeId, tracks) pairs.
    std::vector<std::pair<int, int>> edgeUse;

    [[nodiscard]] const steiner::Topology& backbone() const {
        return shape->backbone;
    }
    [[nodiscard]] const std::vector<steiner::Topology>& bitTopologies() const {
        return shape->bitTopologies;
    }
    [[nodiscard]] const std::vector<std::pair<int, int>>& viaUse() const {
        return shape->viaUse;
    }
    [[nodiscard]] long wirelength2d() const { return shape->wirelength2d; }
    [[nodiscard]] int viaCount() const { return shape->viaCount; }
};

/// Compute the sorted per-edge track demand of a set of bit topologies on
/// the given layer pair. Exposed for the post-optimization stages.
[[nodiscard]] std::vector<std::pair<int, int>> computeEdgeUse(
    const grid::RoutingGrid& grid, const std::vector<steiner::Topology>& bits,
    int hLayer, int vLayer);

/// Edge demand of a single topology (convenience wrapper).
[[nodiscard]] std::vector<std::pair<int, int>> computeEdgeUse(
    const grid::RoutingGrid& grid, const steiner::Topology& topo, int hLayer,
    int vLayer);

/// Via-slot demand of a set of bit topologies: one slot per pin (access
/// stack) plus one per layer-change point. Sorted (cellIndex, slots).
[[nodiscard]] std::vector<std::pair<int, int>> computeViaUse(
    const grid::RoutingGrid& grid, const std::vector<steiner::Topology>& bits);

/// Via demand of a single topology.
[[nodiscard]] std::vector<std::pair<int, int>> computeViaUse(
    const grid::RoutingGrid& grid, const steiner::Topology& topo);

/// Enumerate candidates for one object: backbones x layer pairs, filtered
/// to those that fit edge capacities in an empty grid. Sorted by cost.
[[nodiscard]] std::vector<RouteCandidate> generateCandidates(
    const Design& design, const RoutingObject& object,
    const StreakOptions& opts);

}  // namespace streak

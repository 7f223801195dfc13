// Test oracle for generateCandidates: the original per-layer-pair
// expansion, which copies the backbone and bit topologies into every
// candidate and recounts edge and via demand through a std::map for each
// layer pair. The production build (shared shape per backbone, 2-D demand
// plus layer offsets, sort + run-length counting) must reproduce it field
// by field and in the same order (candidate_equivalence_test).
// Header-only and test-only: no production target includes it.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <map>
#include <utility>
#include <vector>

#include "core/backbone.hpp"
#include "core/candidate.hpp"
#include "core/equiv.hpp"

namespace streak::testoracle {

/// A candidate with every field stored by value.
struct OracleCandidate {
    int backboneId = 0;
    steiner::Topology backbone;
    std::vector<steiner::Topology> bitTopologies;
    int hLayer = 0;
    int vLayer = 1;
    double cost = 0.0;
    long wirelength2d = 0;
    int viaCount = 0;
    std::vector<std::pair<int, int>> edgeUse;
    std::vector<std::pair<int, int>> viaUse;
};

namespace oracle_detail {

inline void accumulateEdgeUse(const grid::RoutingGrid& grid,
                              const steiner::Topology& topo, int hLayer,
                              int vLayer, std::map<int, int>* use) {
    for (const steiner::UnitEdge& e : topo.wire()) {  // analyze-ok: unordered-iteration (counting into an ordered map)
        const int layer = e.horizontal ? hLayer : vLayer;
        if (grid.validEdge(layer, e.at.x, e.at.y)) {
            ++(*use)[grid.edgeId(layer, e.at.x, e.at.y)];
        }
    }
}

inline void accumulateViaUse(const grid::RoutingGrid& grid,
                             const steiner::Topology& topo,
                             std::map<int, int>* use) {
    for (const geom::Point p : topo.pins()) {
        if (grid.contains(p)) ++(*use)[grid.cellIndex(p)];
    }
    for (const geom::Point p : topo.viaPoints()) {
        if (grid.contains(p)) ++(*use)[grid.cellIndex(p)];
    }
}

}  // namespace oracle_detail

/// std::map reference for computeEdgeUse.
inline std::vector<std::pair<int, int>> edgeUseOracle(
    const grid::RoutingGrid& grid, const std::vector<steiner::Topology>& bits,
    int hLayer, int vLayer) {
    std::map<int, int> use;
    for (const steiner::Topology& t : bits) {
        oracle_detail::accumulateEdgeUse(grid, t, hLayer, vLayer, &use);
    }
    return {use.begin(), use.end()};
}

/// std::map reference for computeViaUse.
inline std::vector<std::pair<int, int>> viaUseOracle(
    const grid::RoutingGrid& grid,
    const std::vector<steiner::Topology>& bits) {
    std::map<int, int> use;
    for (const steiner::Topology& t : bits) {
        oracle_detail::accumulateViaUse(grid, t, &use);
    }
    return {use.begin(), use.end()};
}

/// The original candidate expansion: backbones x layer pairs, each pair
/// recomputing its demand from scratch, filtered by empty-grid fit and
/// stable-sorted by cost.
inline std::vector<OracleCandidate> generateCandidatesOracle(
    const Design& design, const RoutingObject& object,
    const StreakOptions& opts) {
    const SignalGroup& group =
        design.groups[static_cast<size_t>(object.groupIndex)];
    const std::vector<steiner::Topology> backbones =
        generateBackbones(group, object, opts.backbone);

    const std::vector<int> hLayers = design.grid.layersOf(grid::Dir::Horizontal);
    const std::vector<int> vLayers = design.grid.layersOf(grid::Dir::Vertical);
    std::vector<std::pair<int, int>> pairs;
    for (const int h : hLayers) {
        for (const int v : vLayers) pairs.emplace_back(h, v);
    }
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const auto& a, const auto& b) {
                         const int ga = std::abs(a.first - a.second);
                         const int gb = std::abs(b.first - b.second);
                         if (ga != gb) return ga < gb;
                         return a < b;
                     });
    if (static_cast<int>(pairs.size()) > opts.maxLayerPairs) {
        pairs.resize(static_cast<size_t>(opts.maxLayerPairs));
    }

    std::vector<OracleCandidate> out;
    for (size_t bb = 0; bb < backbones.size(); ++bb) {
        std::vector<steiner::Topology> bitTopos;
        for (int k = 0; k < object.width(); ++k) {
            bitTopos.push_back(
                equivalentTopology(backbones[bb], group, object, k));
        }
        long wl = 0;
        int vias2d = 0;
        int pinAccess = 0;
        for (const steiner::Topology& t : bitTopos) {
            wl += t.wirelength();
            vias2d += t.bendCount();
            pinAccess += static_cast<int>(t.pins().size());
        }

        for (const auto& [h, v] : pairs) {
            OracleCandidate cand;
            cand.backboneId = static_cast<int>(bb);
            cand.backbone = backbones[bb];
            cand.bitTopologies = bitTopos;
            cand.hLayer = h;
            cand.vLayer = v;
            cand.wirelength2d = wl;
            cand.viaCount = vias2d + pinAccess;
            cand.edgeUse = edgeUseOracle(design.grid, bitTopos, h, v);
            cand.viaUse = viaUseOracle(design.grid, bitTopos);

            bool fits = true;
            for (const auto& [edge, amount] : cand.edgeUse) {
                if (amount > design.grid.capacity(edge)) {
                    fits = false;
                    break;
                }
            }
            if (fits && design.grid.viaLimited()) {
                for (const auto& [cell, amount] : cand.viaUse) {
                    const int cap = design.grid.viaCapacity(cell);
                    if (cap >= 0 && amount > cap) {
                        fits = false;
                        break;
                    }
                }
            }
            if (!fits) continue;

            const int gap = std::abs(h - v) - 1;
            cand.cost = static_cast<double>(wl) +
                        opts.viaWeight * cand.viaCount +
                        opts.layerAdjacencyWeight * gap *
                            static_cast<double>(object.width());
            out.push_back(std::move(cand));
        }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const OracleCandidate& a, const OracleCandidate& b) {
                         return a.cost < b.cost;
                     });
    return out;
}

}  // namespace streak::testoracle

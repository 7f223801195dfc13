#include "core/candidate.hpp"

#include <algorithm>
#include <cstdlib>

#include "core/backbone.hpp"
#include "core/equiv.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"

namespace streak {

namespace {

/// Local tallies for one generateCandidates() call, flushed once on exit.
struct CandidateTally {
    long long backbones = 0;
    long long layerPairs = 0;  // backbone x layer-pair expansions tried
    long long unfit = 0;       // expansions that exceed an empty grid

    ~CandidateTally() {
        if (!obs::detailEnabled()) return;
        obs::Session& sess = obs::session();
        sess.counter("build/cand.backbones").add(backbones);
        sess.counter("build/cand.layer_pairs").add(layerPairs);
        sess.counter("build/cand.unfit").add(unfit);
    }
};

/// Count equal ids: the sorted (id, multiplicity) runs of `ids`.
std::vector<std::pair<int, int>> runLengths(std::vector<int> ids) {
    std::sort(ids.begin(), ids.end());
    std::vector<std::pair<int, int>> runs;
    for (const int id : ids) {
        if (!runs.empty() && runs.back().first == id) {
            ++runs.back().second;
        } else {
            runs.emplace_back(id, 1);
        }
    }
    return runs;
}

void appendEdgeIds(const grid::RoutingGrid& grid,
                   const steiner::Topology& topo, int hLayer, int vLayer,
                   std::vector<int>* ids) {
    for (const steiner::UnitEdge& e : topo.wire()) {  // analyze-ok: unordered-iteration (ids are sorted before use)
        const int layer = e.horizontal ? hLayer : vLayer;
        if (grid.validEdge(layer, e.at.x, e.at.y)) {
            ids->push_back(grid.edgeId(layer, e.at.x, e.at.y));
        }
    }
}

void appendCells(const grid::RoutingGrid& grid,
                 const std::vector<geom::Point>& points,
                 std::vector<int>* cells) {
    for (const geom::Point p : points) {
        if (grid.contains(p)) cells->push_back(grid.cellIndex(p));
    }
}

}  // namespace

std::vector<std::pair<int, int>> computeEdgeUse(
    const grid::RoutingGrid& grid, const std::vector<steiner::Topology>& bits,
    int hLayer, int vLayer) {
    std::vector<int> ids;
    for (const steiner::Topology& t : bits) {
        appendEdgeIds(grid, t, hLayer, vLayer, &ids);
    }
    return runLengths(std::move(ids));
}

std::vector<std::pair<int, int>> computeEdgeUse(const grid::RoutingGrid& grid,
                                                const steiner::Topology& topo,
                                                int hLayer, int vLayer) {
    std::vector<int> ids;
    appendEdgeIds(grid, topo, hLayer, vLayer, &ids);
    return runLengths(std::move(ids));
}

std::vector<std::pair<int, int>> computeViaUse(
    const grid::RoutingGrid& grid,
    const std::vector<steiner::Topology>& bits) {
    std::vector<int> cells;
    for (const steiner::Topology& t : bits) {
        appendCells(grid, t.pins(), &cells);
        appendCells(grid, t.viaPoints(), &cells);
    }
    return runLengths(std::move(cells));
}

std::vector<std::pair<int, int>> computeViaUse(const grid::RoutingGrid& grid,
                                               const steiner::Topology& topo) {
    std::vector<int> cells;
    appendCells(grid, topo.pins(), &cells);
    appendCells(grid, topo.viaPoints(), &cells);
    return runLengths(std::move(cells));
}

namespace {

/// Edge demand of one backbone's bits, counted once in layer-local ids
/// (edge id minus the layer's first id). The in-layer layout and edge
/// validity depend only on direction, so these runs hold on every layer
/// of that direction.
struct PlanarDemand {
    std::vector<std::pair<int, int>> horizontal;
    std::vector<std::pair<int, int>> vertical;
};

PlanarDemand planarDemand(const grid::RoutingGrid& grid,
                          const std::vector<steiner::Topology>& bits,
                          int hLayer, int vLayer) {
    const int hBase = grid.layerOffset(hLayer);
    const int vBase = grid.layerOffset(vLayer);
    // The two layers' id ranges are disjoint and contiguous, so the
    // sorted runs on (hLayer, vLayer) split at the upper layer's first id.
    const bool hFirst = hBase < vBase;
    const int split = hFirst ? vBase : hBase;
    PlanarDemand d;
    for (const auto& [id, tracks] : computeEdgeUse(grid, bits, hLayer, vLayer)) {
        if ((id < split) == hFirst) {
            d.horizontal.emplace_back(id - hBase, tracks);
        } else {
            d.vertical.emplace_back(id - vBase, tracks);
        }
    }
    return d;
}

/// Append `runs` shifted to the layer starting at edge id `base`; false
/// as soon as one edge exceeds its empty-grid capacity.
bool appendShifted(const grid::RoutingGrid& grid,
                   const std::vector<std::pair<int, int>>& runs, int base,
                   std::vector<std::pair<int, int>>* out) {
    for (const auto& [local, tracks] : runs) {
        const int edge = base + local;
        if (tracks > grid.capacity(edge)) return false;
        out->emplace_back(edge, tracks);
    }
    return true;
}

/// Sorted edge demand on layer pair (h, v), or false when it does not fit
/// an empty grid. The lower layer's ids all precede the upper layer's, so
/// concatenating in offset order keeps the list sorted.
bool layerPairUse(const grid::RoutingGrid& grid, const PlanarDemand& d,
                  int h, int v, std::vector<std::pair<int, int>>* out) {
    out->reserve(d.horizontal.size() + d.vertical.size());
    const int hBase = grid.layerOffset(h);
    const int vBase = grid.layerOffset(v);
    if (hBase < vBase) {
        return appendShifted(grid, d.horizontal, hBase, out) &&
               appendShifted(grid, d.vertical, vBase, out);
    }
    return appendShifted(grid, d.vertical, vBase, out) &&
           appendShifted(grid, d.horizontal, hBase, out);
}

bool viaFits(const grid::RoutingGrid& grid,
             const std::vector<std::pair<int, int>>& viaUse) {
    if (!grid.viaLimited()) return true;
    for (const auto& [cell, amount] : viaUse) {
        const int cap = grid.viaCapacity(cell);
        if (cap >= 0 && amount > cap) return false;
    }
    return true;
}

/// The layer-independent shape of one backbone: equivalent topologies,
/// 2-D totals and via demand, with each bit's via points computed once.
std::shared_ptr<CandidateShape> makeShape(const grid::RoutingGrid& grid,
                                          steiner::Topology backbone,
                                          const SignalGroup& group,
                                          const RoutingObject& object) {
    auto shape = std::make_shared<CandidateShape>();
    shape->bitTopologies = equivalentTopologies(backbone, group, object);
    shape->backbone = std::move(backbone);
    int bends = 0;
    int pinAccess = 0;
    std::vector<int> cells;
    for (const steiner::Topology& t : shape->bitTopologies) {
        const std::vector<geom::Point> vias = t.viaPoints();
        shape->wirelength2d += t.wirelength();
        bends += static_cast<int>(vias.size());
        pinAccess += static_cast<int>(t.pins().size());
        appendCells(grid, t.pins(), &cells);
        appendCells(grid, vias, &cells);
    }
    shape->viaCount = bends + pinAccess;
    shape->viaUse = runLengths(std::move(cells));
    return shape;
}

}  // namespace

std::vector<RouteCandidate> generateCandidates(const Design& design,
                                               const RoutingObject& object,
                                               const StreakOptions& opts) {
    CandidateTally tally;
    const grid::RoutingGrid& grid = design.grid;

    // Layer pairs ordered by adjacency (|h - v|), then bottom-up: the
    // paper prefers neighbouring uni-directional layers to save vias.
    const std::vector<int> hLayers = grid.layersOf(grid::Dir::Horizontal);
    const std::vector<int> vLayers = grid.layersOf(grid::Dir::Vertical);
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
    // No layer pair (a grid without one of the directions, or
    // maxLayerPairs = 0): nothing can be expanded.
    if (pairs.empty()) return {};

    const SignalGroup& group =
        design.groups[static_cast<size_t>(object.groupIndex)];
    std::vector<steiner::Topology> backbones =
        generateBackbones(group, object, opts.backbone);
    tally.backbones = static_cast<long long>(backbones.size());

    std::vector<RouteCandidate> out;
    for (size_t bb = 0; bb < backbones.size(); ++bb) {
        tally.layerPairs += static_cast<long long>(pairs.size());
        const std::shared_ptr<const CandidateShape> shape =
            makeShape(grid, std::move(backbones[bb]), group, object);
        // Via demand is layer independent: it fits every pair or none.
        if (!viaFits(grid, shape->viaUse)) {
            tally.unfit += static_cast<long long>(pairs.size());
            continue;
        }
        const PlanarDemand demand = planarDemand(
            grid, shape->bitTopologies, pairs.front().first,
            pairs.front().second);

        for (const auto& [h, v] : pairs) {
            // Feasibility in an empty grid: a candidate that alone exceeds
            // some edge or via capacity can never be selected.
            RouteCandidate cand;
            if (!layerPairUse(grid, demand, h, v, &cand.edgeUse)) {
                ++tally.unfit;
                continue;
            }
            cand.backboneId = static_cast<int>(bb);
            cand.shape = shape;
            cand.hLayer = h;
            cand.vLayer = v;
            const int gap = std::abs(h - v) - 1;
            cand.cost = static_cast<double>(shape->wirelength2d) +
                        opts.viaWeight * shape->viaCount +
                        opts.layerAdjacencyWeight * gap *
                            static_cast<double>(object.width());
            out.push_back(std::move(cand));
        }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const RouteCandidate& a, const RouteCandidate& b) {
                         return a.cost < b.cost;
                     });
    return out;
}

}  // namespace streak

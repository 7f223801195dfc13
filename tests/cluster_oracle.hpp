// Test oracle for post::clusterAndRoute: the original Alg. 3 pair loop,
// which rescans every live cluster pair after each visit. The production
// pair heap must reproduce its output exactly (clustering_equivalence_test).
// Header-only and test-only: no production target includes it.
#pragma once

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "core/backbone.hpp"
#include "core/equiv.hpp"
#include "core/problem.hpp"
#include "core/regularity.hpp"
#include "core/solution.hpp"
#include "post/clustering.hpp"
#include "post/layer_predict.hpp"

namespace streak::testoracle {

namespace oracle_detail {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Cluster {
    /// (objectIndex, memberIndex) of every bit in the cluster.
    std::vector<std::pair<int, int>> members;
    /// Candidate topologies of the *founding* member (cluster style).
    std::vector<steiner::Topology> candidates;
    /// Committed topology per member once routed (member-aligned).
    std::vector<steiner::Topology> routedTopos;
    bool routed = false;
    bool dead = false;  // no feasible candidate remains

    [[nodiscard]] const steiner::Topology& style() const {
        return routedTopos.front();
    }
};

/// Cost of adopting a candidate: wire-length plus via weight, mirroring
/// the candidate cost model.
inline double baseCost(const steiner::Topology& t,
                       const StreakOptions& opts) {
    return static_cast<double>(t.wirelength()) +
           opts.viaWeight * (t.bendCount() + static_cast<int>(t.pins().size()));
}

inline bool fits(const grid::EdgeUsage& usage, const steiner::Topology& t,
                 int h, int v) {
    const grid::RoutingGrid& grid = usage.grid();
    for (const steiner::UnitEdge& e : t.wire()) {  // analyze-ok: unordered-iteration (all-of check; order cannot escape)
        const int layer = e.horizontal ? h : v;
        if (!grid.validEdge(layer, e.at.x, e.at.y)) return false;
        if (usage.remaining(grid.edgeId(layer, e.at.x, e.at.y)) < 1) {
            return false;
        }
    }
    if (grid.viaLimited()) {
        for (const auto& [cell, amount] : computeViaUse(grid, t)) {
            if (usage.viaRemaining(cell) < amount) return false;
        }
    }
    return true;
}

inline void commit(grid::EdgeUsage* usage, const steiner::Topology& t, int h,
                   int v) {
    const grid::RoutingGrid& grid = usage->grid();
    for (const steiner::UnitEdge& e : t.wire()) {  // analyze-ok: unordered-iteration (commutative usage adds)
        const int layer = e.horizontal ? h : v;
        usage->add(grid.edgeId(layer, e.at.x, e.at.y), 1);
    }
    if (grid.viaLimited()) {
        for (const auto& [cell, amount] : computeViaUse(grid, t)) {
            usage->addVias(cell, amount);
        }
    }
}

}  // namespace oracle_detail

/// The rescan loop: every iteration evaluates every live unvisited
/// cluster pair and visits the cheapest. `pairEvals` (optional) counts
/// pairCost calls.
inline post::ClusteringResult clusterAndRouteOracle(
    const RoutingProblem& prob, RoutedDesign* routed,
    long long* pairEvals = nullptr) {
    using oracle_detail::baseCost;
    using oracle_detail::Cluster;
    using oracle_detail::commit;
    using oracle_detail::fits;
    using oracle_detail::kInf;
    const Design& design = *prob.design;
    const StreakOptions& opts = prob.opts;
    post::ClusteringResult result;
    int nextClusterKey = prob.numObjects();

    // Unrouted members grouped by signal group.
    std::map<int, std::vector<std::pair<int, int>>> leftovers;
    for (const auto& [objIdx, member] : routed->unroutedMembers) {
        leftovers[prob.objects[static_cast<size_t>(objIdx)].groupIndex]
            .push_back({objIdx, member});
    }
    std::vector<std::pair<int, int>> stillUnrouted;

    for (const auto& [groupIdx, members] : leftovers) {
        const SignalGroup& group = design.groups[static_cast<size_t>(groupIdx)];
        result.bitsAttempted += static_cast<int>(members.size());

        // Line 1 (Alg. 3): candidate topologies per bit, derived from the
        // object's backbones via equivalent-topology generation.
        std::map<int, std::vector<steiner::Topology>> backbonesOf;
        std::vector<Cluster> clusters;
        std::vector<std::vector<steiner::Topology>> allCandidates;
        for (const auto& [objIdx, member] : members) {
            const RoutingObject& obj = prob.objects[static_cast<size_t>(objIdx)];
            auto it = backbonesOf.find(objIdx);
            if (it == backbonesOf.end()) {
                it = backbonesOf
                         .emplace(objIdx,
                                  generateBackbones(group, obj, opts.backbone))
                         .first;
            }
            std::vector<steiner::Topology> cands;
            cands.reserve(it->second.size());
            for (const steiner::Topology& bb : it->second) {
                cands.push_back(equivalentTopology(bb, group, obj, member));
            }
            allCandidates.push_back(cands);
            Cluster c;
            c.members.push_back({objIdx, member});
            c.candidates = std::move(cands);
            clusters.push_back(std::move(c));
        }

        // Line 2: layer prediction for this group.
        const post::LayerPrediction layers =
            post::predictLayers(routed->usage, allCandidates);

        const auto routeCluster = [&](Cluster* c, int candIdx) {
            // The pair-cost feasibility check predates the partner's
            // commit; re-validate before committing.
            if (!fits(routed->usage, c->candidates[static_cast<size_t>(candIdx)],
                      layers.hLayer, layers.vLayer)) {
                return;
            }
            c->routed = true;
            c->routedTopos = {c->candidates[static_cast<size_t>(candIdx)]};
            commit(&routed->usage, c->style(), layers.hLayer, layers.vLayer);
        };

        // Best feasible single-cluster candidate (by base cost); -1 if
        // nothing fits.
        const auto bestCandidate = [&](const Cluster& c) {
            double best = kInf;
            int bestIdx = -1;
            for (size_t j = 0; j < c.candidates.size(); ++j) {
                if (!fits(routed->usage, c.candidates[j], layers.hLayer,
                          layers.vLayer)) {
                    continue;
                }
                const double cost = baseCost(c.candidates[j], opts);
                if (cost < best) {
                    best = cost;
                    bestIdx = static_cast<int>(j);
                }
            }
            return bestIdx;
        };

        // Lines 5-15: visit cluster pairs in minimum-cost order.
        std::set<std::pair<size_t, size_t>> visited;
        const auto pairCost = [&](const Cluster& a, const Cluster& b,
                                  int* bestA, int* bestB) -> double {
            if (pairEvals != nullptr) ++*pairEvals;
            double best = kInf;
            const int na = a.routed ? 1 : static_cast<int>(a.candidates.size());
            const int nb = b.routed ? 1 : static_cast<int>(b.candidates.size());
            for (int ja = 0; ja < na; ++ja) {
                const steiner::Topology& ta =
                    a.routed ? a.style()
                             : a.candidates[static_cast<size_t>(ja)];
                if (!a.routed &&
                    !fits(routed->usage, ta, layers.hLayer, layers.vLayer)) {
                    continue;
                }
                for (int jb = 0; jb < nb; ++jb) {
                    const steiner::Topology& tb =
                        b.routed ? b.style()
                                 : b.candidates[static_cast<size_t>(jb)];
                    if (!b.routed &&
                        !fits(routed->usage, tb, layers.hLayer, layers.vLayer)) {
                        continue;
                    }
                    double c = 0.0;
                    if (!a.routed) c += baseCost(ta, opts);
                    if (!b.routed) c += baseCost(tb, opts);
                    const double ratio = regularityRatio(ta, tb);
                    c += ratio > 0.0
                             ? opts.irregularityWeight * (1.0 / ratio - 1.0)
                             : opts.noSharePenalty;
                    if (c < best) {
                        best = c;
                        *bestA = ja;
                        *bestB = jb;
                    }
                }
            }
            return best;
        };

        for (;;) {
            double bestCost = kInf;
            size_t bestI = 0, bestJ = 0;
            int candI = -1, candJ = -1;
            for (size_t i = 0; i < clusters.size(); ++i) {
                if (clusters[i].dead) continue;
                for (size_t j = i + 1; j < clusters.size(); ++j) {
                    if (clusters[j].dead) continue;
                    if (visited.contains({i, j})) continue;
                    int ja = -1, jb = -1;
                    const double c =
                        pairCost(clusters[i], clusters[j], &ja, &jb);
                    if (c < bestCost) {
                        bestCost = c;
                        bestI = i;
                        bestJ = j;
                        candI = ja;
                        candJ = jb;
                    }
                }
            }
            if (bestCost == kInf) break;
            visited.insert({bestI, bestJ});
            Cluster& a = clusters[bestI];
            Cluster& b = clusters[bestJ];
            // Lines 7-9: route the not-yet-routed cluster(s) with the
            // minimum-cost combination found.
            if (!a.routed) routeCluster(&a, candI);
            if (!b.routed) routeCluster(&b, candJ);
            // Lines 11-14: merge equal-topology clusters.
            if (a.routed && b.routed &&
                regularityRatio(a.style(), b.style()) >= 1.0) {
                for (size_t k = 0; k < b.members.size(); ++k) {
                    a.members.push_back(b.members[k]);
                    a.routedTopos.push_back(b.routedTopos[k]);
                }
                b.members.clear();
                b.routedTopos.clear();
                b.dead = true;
            }
        }

        // Isolated clusters (single-bit groups have no pairs) route alone.
        for (Cluster& c : clusters) {
            if (c.dead || c.routed) continue;
            const int bestIdx = bestCandidate(c);
            if (bestIdx >= 0) {
                routeCluster(&c, bestIdx);
            } else {
                c.dead = true;
            }
        }

        // Emit routed bits; collect leftovers.
        for (const Cluster& c : clusters) {
            if (!c.routed) {
                for (const auto& m : c.members) stillUnrouted.push_back(m);
                continue;
            }
            if (c.members.empty()) continue;  // merged-away shell
            const int key = nextClusterKey++;
            ++result.clustersFormed;
            for (size_t k = 0; k < c.members.size(); ++k) {
                const auto& [objIdx, member] = c.members[k];
                const RoutingObject& obj =
                    prob.objects[static_cast<size_t>(objIdx)];
                RoutedBit rb;
                rb.groupIndex = groupIdx;
                rb.bitIndex = obj.bitIndices[static_cast<size_t>(member)];
                rb.objectIndex = objIdx;
                rb.memberIndex = member;
                rb.clusterKey = key;
                rb.topo = c.routedTopos[k];
                rb.hLayer = layers.hLayer;
                rb.vLayer = layers.vLayer;
                routed->bits.push_back(std::move(rb));
                ++result.bitsRouted;
            }
        }
    }

    routed->unroutedMembers = std::move(stillUnrouted);
    return result;
}

}  // namespace streak::testoracle

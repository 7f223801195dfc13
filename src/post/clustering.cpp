#include "post/clustering.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <tuple>

#include "core/backbone.hpp"
#include "core/equiv.hpp"
#include "core/regularity.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "post/layer_predict.hpp"
#include "robust/control.hpp"
#include "robust/fault.hpp"

namespace streak::post {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Heap pops between deadline/cancel polls. A pop is coarse work (a
/// fresh pop commits routes, a stale one re-evaluates a K x K pair), so
/// the stride is far below the maze's.
constexpr int kTickStride = 16;

/// Local tallies for one clusterAndRoute() call, flushed once on exit
/// (any path) so the pair loop never touches the registry.
struct ClusterTally {
    long long pairEvals = 0;
    long long ratioEvals = 0;
    long long fitsChecks = 0;
    long long heapPops = 0;
    long long stalePops = 0;
    long long merges = 0;

    ~ClusterTally() {
        if (!obs::detailEnabled()) return;
        obs::Session& sess = obs::session();
        sess.counter("post/cluster.pair_evals").add(pairEvals);
        sess.counter("post/cluster.ratio_evals").add(ratioEvals);
        sess.counter("post/cluster.fits_checks").add(fitsChecks);
        sess.counter("post/cluster.heap_pops").add(heapPops);
        sess.counter("post/cluster.stale_pops").add(stalePops);
        sess.counter("post/cluster.merges").add(merges);
    }
};

/// Cost of adopting a candidate: wire-length plus via weight, mirroring
/// the candidate cost model.
double baseCost(const steiner::Topology& t, const StreakOptions& opts) {
    return static_cast<double>(t.wirelength()) +
           opts.viaWeight * (t.bendCount() + static_cast<int>(t.pins().size()));
}

/// One candidate topology of a leftover bit, with everything the pair
/// loop reads of it computed once on the group's predicted layers.
struct Candidate {
    steiner::Topology topo;
    double baseCost = 0.0;
    RegularityView view;
    /// Track edge ids of the wire on the predicted layers.
    std::vector<int> edges;
    /// Via-slot demand (only filled on via-limited grids).
    std::vector<std::pair<int, int>> vias;
    /// fits() cache. Usage only grows, so No is final; Yes holds only at
    /// usage epoch `fitEpoch`. Off-grid candidates start at No.
    enum class Fit : unsigned char { Unknown, Yes, No } fit = Fit::Unknown;
    long fitEpoch = -1;
};

struct Cluster {
    /// (objectIndex, memberIndex) of every bit in the cluster.
    std::vector<std::pair<int, int>> members;
    /// Candidate ids [firstCand, firstCand + numCands) of the *founding*
    /// member (cluster style).
    int firstCand = 0;
    int numCands = 0;
    /// Committed candidate id per member once routed (member-aligned).
    std::vector<int> routedCands;
    bool routed = false;
    bool dead = false;  // merged away
    /// Bumped when the cluster becomes routed: its pair costs change
    /// formula then, so heap entries stamped with an older version die.
    int version = 0;

    [[nodiscard]] int style() const { return routedCands.front(); }
};

/// Minimum-cost candidate combination of one cluster pair.
struct PairChoice {
    double cost = kInf;
    int candA = -1;
    int candB = -1;
};

/// A pair-heap entry: the best choice for clusters (i, j) as of usage
/// epoch `epoch` and the two clusters' versions.
struct PairEntry {
    PairChoice choice;
    int i = 0;
    int j = 0;
    long epoch = 0;
    int versionI = 0;
    int versionJ = 0;
};

/// Heap order: std::push_heap keeps the max on top, so "after" puts the
/// lexicographically smallest (cost, i, j) there — the pair a scan over
/// i < j with a strict < would pick.
bool popsAfter(const PairEntry& x, const PairEntry& y) {
    return std::tie(x.choice.cost, x.i, x.j) >
           std::tie(y.choice.cost, y.i, y.j);
}

/// Alg. 3 lines 3-15 over the leftover bits of one signal group.
///
/// Within clustering EdgeUsage only grows (nothing is ripped up), so a
/// candidate that stops fitting never fits again and a pair's cost can
/// only rise while both clusters keep their routed state. The pair heap
/// therefore holds lower bounds: a popped entry stamped with an older
/// usage epoch is re-evaluated and pushed back, and an entry stamped with
/// the current epoch is the exact minimum over all live pairs. A cluster
/// that becomes routed gets fresh entries for all its pairs.
class GroupClusterer {
public:
    GroupClusterer(const StreakOptions& opts, grid::EdgeUsage* usage,
                   const LayerPrediction& layers, ClusterTally* tally)
        : opts_(opts), usage_(usage), layers_(layers), tally_(tally) {}

    /// Add one bit as its own cluster with the given candidates.
    void addBit(std::pair<int, int> member,
                std::vector<steiner::Topology> topos) {
        Cluster c;
        c.members.push_back(member);
        c.firstCand = static_cast<int>(cands_.size());
        c.numCands = static_cast<int>(topos.size());
        for (steiner::Topology& t : topos) addCandidate(std::move(t));
        clusters_.push_back(std::move(c));
    }

    /// Visit cluster pairs in minimum-cost order, then route the
    /// clusters no pair reached on their own.
    void run(robust::TickGate* gate) {
        const size_t n = clusters_.size();
        ratios_.assign(cands_.size() * cands_.size(), -1.0);
        visited_.assign(n * n, 0);
        for (size_t i = 0; i < n; ++i) {
            for (size_t j = i + 1; j < n; ++j) pushPair(i, j);
        }

        // Lines 5-15: visit cluster pairs in minimum-cost order.
        while (!heap_.empty()) {
            std::pop_heap(heap_.begin(), heap_.end(), popsAfter);
            const PairEntry top = heap_.back();
            heap_.pop_back();
            ++tally_->heapPops;
            gate->tick();
            Cluster& a = clusters_[static_cast<size_t>(top.i)];
            Cluster& b = clusters_[static_cast<size_t>(top.j)];
            if (a.dead || b.dead || a.version != top.versionI ||
                b.version != top.versionJ) {
                ++tally_->stalePops;  // superseded or merged away
                continue;
            }
            if (top.epoch != epoch_) {
                ++tally_->stalePops;  // lower bound: re-evaluate
                pushPair(static_cast<size_t>(top.i),
                         static_cast<size_t>(top.j));
                continue;
            }
            visited_[static_cast<size_t>(top.i) * n +
                     static_cast<size_t>(top.j)] = 1;
            // Lines 7-9: route the not-yet-routed cluster(s) with the
            // minimum-cost combination found.
            const bool aWasRouted = a.routed;
            const bool bWasRouted = b.routed;
            if (!a.routed) routeCluster(&a, top.choice.candA);
            if (!b.routed) routeCluster(&b, top.choice.candB);
            // Lines 11-14: merge equal-topology clusters.
            if (a.routed && b.routed && ratio(a.style(), b.style()) >= 1.0) {
                for (size_t k = 0; k < b.members.size(); ++k) {
                    a.members.push_back(b.members[k]);
                    a.routedCands.push_back(b.routedCands[k]);
                }
                b.members.clear();
                b.routedCands.clear();
                b.dead = true;
                ++tally_->merges;
            }
            if (a.routed && !aWasRouted) repushPairs(static_cast<size_t>(top.i));
            if (b.routed && !bWasRouted && !b.dead) {
                repushPairs(static_cast<size_t>(top.j));
            }
        }

        // Isolated clusters (single-bit groups have no pairs) route alone.
        for (Cluster& c : clusters_) {
            if (c.dead || c.routed) continue;
            const int best = bestCandidate(c);
            if (best >= 0) routeCluster(&c, best);
        }
    }

    [[nodiscard]] const std::vector<Cluster>& clusters() const {
        return clusters_;
    }
    [[nodiscard]] const steiner::Topology& topology(int cand) const {
        return cands_[static_cast<size_t>(cand)].topo;
    }

private:
    void addCandidate(steiner::Topology t) {
        const grid::RoutingGrid& grid = usage_->grid();
        Candidate c;
        c.baseCost = baseCost(t, opts_);
        c.view = RegularityView(t);
        for (const steiner::UnitEdge& e : t.sortedWire()) {
            const int layer = e.horizontal ? layers_.hLayer : layers_.vLayer;
            if (!grid.validEdge(layer, e.at.x, e.at.y)) {
                c.fit = Candidate::Fit::No;  // off the predicted layers
                break;
            }
            c.edges.push_back(grid.edgeId(layer, e.at.x, e.at.y));
        }
        if (grid.viaLimited()) c.vias = computeViaUse(grid, t);
        c.topo = std::move(t);
        cands_.push_back(std::move(c));
    }

    /// Whether a candidate still fits the remaining capacity.
    bool fits(int cand) {
        Candidate& c = cands_[static_cast<size_t>(cand)];
        using Fit = Candidate::Fit;
        if (c.fit == Fit::No) return false;
        if (c.fit == Fit::Yes && c.fitEpoch == epoch_) return true;
        ++tally_->fitsChecks;
        bool ok = true;
        for (const int edge : c.edges) {
            if (usage_->remaining(edge) < 1) {
                ok = false;
                break;
            }
        }
        for (size_t v = 0; ok && v < c.vias.size(); ++v) {
            if (usage_->viaRemaining(c.vias[v].first) < c.vias[v].second) {
                ok = false;
            }
        }
        c.fit = ok ? Fit::Yes : Fit::No;
        c.fitEpoch = epoch_;
        return ok;
    }

    /// Ratio(a, b) of two candidates, memoised for the group.
    double ratio(int ca, int cb) {
        double& r = ratios_[static_cast<size_t>(ca) * cands_.size() +
                            static_cast<size_t>(cb)];
        if (r < 0.0) {
            ++tally_->ratioEvals;
            r = regularityRatio(cands_[static_cast<size_t>(ca)].view,
                                cands_[static_cast<size_t>(cb)].view);
        }
        return r;
    }

    PairChoice pairCost(const Cluster& a, const Cluster& b) {
        ++tally_->pairEvals;
        PairChoice best;
        const int na = a.routed ? 1 : a.numCands;
        const int nb = b.routed ? 1 : b.numCands;
        for (int ja = 0; ja < na; ++ja) {
            const int ca = a.routed ? a.style() : a.firstCand + ja;
            if (!a.routed && !fits(ca)) continue;
            for (int jb = 0; jb < nb; ++jb) {
                const int cb = b.routed ? b.style() : b.firstCand + jb;
                if (!b.routed && !fits(cb)) continue;
                double c = 0.0;
                if (!a.routed) c += cands_[static_cast<size_t>(ca)].baseCost;
                if (!b.routed) c += cands_[static_cast<size_t>(cb)].baseCost;
                const double r = ratio(ca, cb);
                c += r > 0.0 ? opts_.irregularityWeight * (1.0 / r - 1.0)
                             : opts_.noSharePenalty;
                if (c < best.cost) best = {c, ca, cb};
            }
        }
        return best;
    }

    /// Evaluate pair (i, j) now and queue it; pairs that cannot route
    /// stay out until a partner's routing refreshes them.
    void pushPair(size_t i, size_t j) {
        const Cluster& a = clusters_[i];
        const Cluster& b = clusters_[j];
        const PairChoice choice = pairCost(a, b);
        if (choice.cost == kInf) return;
        heap_.push_back({choice, static_cast<int>(i), static_cast<int>(j),
                         epoch_, a.version, b.version});
        std::push_heap(heap_.begin(), heap_.end(), popsAfter);
    }

    /// Cluster k just became routed: its pair costs now read its style
    /// only, which can be cheaper. Supersede its entries with fresh ones.
    void repushPairs(size_t k) {
        ++clusters_[k].version;
        const size_t n = clusters_.size();
        for (size_t m = 0; m < n; ++m) {
            if (m == k || clusters_[m].dead) continue;
            const size_t i = std::min(k, m);
            const size_t j = std::max(k, m);
            if (visited_[i * n + j] == 0) pushPair(i, j);
        }
    }

    /// Best feasible single-cluster candidate (by base cost); -1 if
    /// nothing fits.
    int bestCandidate(const Cluster& c) {
        double best = kInf;
        int bestIdx = -1;
        for (int j = c.firstCand; j < c.firstCand + c.numCands; ++j) {
            if (!fits(j)) continue;
            const double cost = cands_[static_cast<size_t>(j)].baseCost;
            if (cost < best) {
                best = cost;
                bestIdx = j;
            }
        }
        return bestIdx;
    }

    void routeCluster(Cluster* c, int cand) {
        // The pair-cost feasibility check predates the partner's commit;
        // re-validate before committing.
        if (!fits(cand)) return;
        c->routed = true;
        c->routedCands = {cand};
        const Candidate& t = cands_[static_cast<size_t>(cand)];
        for (const int edge : t.edges) usage_->add(edge, 1);
        for (const auto& [cell, amount] : t.vias) usage_->addVias(cell, amount);
        ++epoch_;
    }

    const StreakOptions& opts_;
    grid::EdgeUsage* usage_;
    LayerPrediction layers_;
    ClusterTally* tally_;

    std::vector<Candidate> cands_;
    std::vector<Cluster> clusters_;
    /// Commits so far; stamps fits() answers and heap entries.
    long epoch_ = 0;
    /// Ratio memo, row-major (candidate of the lower cluster, candidate
    /// of the higher cluster); -1 = not evaluated yet.
    std::vector<double> ratios_;
    /// visited_[i * n + j] for visited pairs i < j.
    std::vector<char> visited_;
    std::vector<PairEntry> heap_;
};

}  // namespace

ClusteringResult clusterAndRoute(const RoutingProblem& prob,
                                 RoutedDesign* routed) {
    STREAK_FAULT_POINT("post/cluster");
    STREAK_SPAN("post/cluster");
    // Tick point: strided over pair-heap pops, the loop's unit of work.
    robust::TickGate gate(prob.opts.control, "post/cluster", kTickStride);
    ClusterTally tally;
    const Design& design = *prob.design;
    const StreakOptions& opts = prob.opts;
    ClusteringResult result;
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
            allCandidates.push_back(std::move(cands));
        }

        // Line 2: layer prediction for this group.
        LayerPrediction layers;
        {
            STREAK_SPAN("post/layer_predict");
            layers = predictLayers(routed->usage, allCandidates);
        }

        GroupClusterer clusterer(opts, &routed->usage, layers, &tally);
        for (size_t m = 0; m < members.size(); ++m) {
            clusterer.addBit(members[m], std::move(allCandidates[m]));
        }
        clusterer.run(&gate);

        // Emit routed bits; collect leftovers.
        for (const Cluster& c : clusterer.clusters()) {
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
                rb.topo = clusterer.topology(c.routedCands[k]);
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

}  // namespace streak::post

#include "core/problem.hpp"

#include <algorithm>
#include <cmath>

#include "core/regularity.hpp"
#include "obs/trace.hpp"
#include "robust/fault.hpp"

namespace streak {

double RoutingProblem::costLowerBound() const {
    double lb = 0.0;
    for (const auto& cands : candidates) {
        if (cands.empty()) continue;  // forced non-route contributes M >= 0
        double best = cands.front().cost;
        for (const RouteCandidate& c : cands) best = std::min(best, c.cost);
        lb += best;
    }
    return lb;
}

namespace {

/// Regularity views of one object's backbones, indexed by backboneId
/// (ids whose backbone produced no candidate keep an empty view).
std::vector<RegularityView> backboneViews(
    const std::vector<RouteCandidate>& cands) {
    std::vector<RegularityView> views;
    std::vector<char> built;
    for (const RouteCandidate& c : cands) {
        const auto id = static_cast<size_t>(c.backboneId);
        if (id >= views.size()) {
            views.resize(id + 1);
            built.resize(id + 1, 0);
        }
        if (built[id] == 0) {
            views[id] = RegularityView(c.backbone());
            built[id] = 1;
        }
    }
    return views;
}

/// Pairwise regularity blocks of one group, in (a, b) member order. Pure
/// function of immutable problem state, so groups evaluate in parallel;
/// the caller splices the per-group results back in group index order.
std::vector<PairBlock> buildGroupPairBlocks(const RoutingProblem& prob,
                                            const std::vector<int>& members,
                                            const StreakOptions& opts) {
    std::vector<std::vector<RegularityView>> views;
    views.reserve(members.size());
    for (const int i : members) {
        views.push_back(backboneViews(prob.candidates[static_cast<size_t>(i)]));
    }
    std::vector<PairBlock> blocks;
    for (size_t a = 0; a < members.size(); ++a) {
        for (size_t b = a + 1; b < members.size(); ++b) {
            const int i = members[a];
            const int p = members[b];
            const auto& candsI = prob.candidates[static_cast<size_t>(i)];
            const auto& candsP = prob.candidates[static_cast<size_t>(p)];
            if (candsI.empty() || candsP.empty()) continue;

            // The Ratio() part depends only on the backbone pair; evaluate
            // it once per pair so layer-pair expansion does not multiply
            // the matching work.
            const auto& viewsI = views[a];
            const auto& viewsP = views[b];
            std::vector<double> ratios(viewsI.size() * viewsP.size(), -1.0);
            PairBlock block;
            block.objA = i;
            block.objB = p;
            block.cost.assign(candsI.size(),
                              std::vector<double>(candsP.size(), 0.0));
            for (size_t j = 0; j < candsI.size(); ++j) {
                for (size_t q = 0; q < candsP.size(); ++q) {
                    const auto bi = static_cast<size_t>(candsI[j].backboneId);
                    const auto bp = static_cast<size_t>(candsP[q].backboneId);
                    double& ratio = ratios[bi * viewsP.size() + bp];
                    if (ratio < 0.0) {
                        ratio = regularityRatio(viewsI[bi], viewsP[bp]);
                    }
                    double c = 0.0;
                    if (ratio <= 0.0) {
                        c = opts.noSharePenalty;
                    } else {
                        c = opts.irregularityWeight * (1.0 / ratio - 1.0);
                    }
                    c += opts.pairLayerWeight *
                         (std::abs(candsI[j].hLayer - candsP[q].hLayer) +
                          std::abs(candsI[j].vLayer - candsP[q].vLayer));
                    block.cost[j][q] = c;
                }
            }
            blocks.push_back(std::move(block));
        }
    }
    return blocks;
}

}  // namespace

RoutingProblem buildProblem(const Design& design, const StreakOptions& opts,
                            parallel::RegionStats* parallelStats) {
    RoutingProblem prob;
    prob.design = &design;
    prob.opts = opts;
    prob.objects = identifyObjects(design);

    prob.groupObjects.assign(static_cast<size_t>(design.numGroups()), {});
    for (size_t i = 0; i < prob.objects.size(); ++i) {
        prob.groupObjects[static_cast<size_t>(prob.objects[i].groupIndex)]
            .push_back(static_cast<int>(i));
    }

    parallel::ThreadPool pool(parallel::resolveThreads(opts.threads));
    pool.setControl(opts.control);

    // Per-object 3-D candidate expansion: independent across objects,
    // collected by object index.
    {
        STREAK_SPAN("build/candidates");
        prob.candidates = pool.parallelMap<std::vector<RouteCandidate>>(
            static_cast<int>(prob.objects.size()), [&](int i) {
                STREAK_FAULT_POINT("build/candidates");
                return generateCandidates(
                    design, prob.objects[static_cast<size_t>(i)], opts);
            });
    }

    // Pairwise regularity costs between objects of one group: evaluated
    // per group in parallel, then spliced in group index order so block
    // ids and pairsOf lists match the sequential path exactly.
    STREAK_SPAN("build/pairs");
    prob.pairsOf.assign(prob.objects.size(), {});
    pool.orderedReduce<std::vector<PairBlock>>(
        static_cast<int>(prob.groupObjects.size()),
        [&](int g) {
            STREAK_FAULT_POINT("build/pairs");
            return buildGroupPairBlocks(
                prob, prob.groupObjects[static_cast<size_t>(g)], opts);
        },
        [&](int /*g*/, std::vector<PairBlock>&& blocks) {
            for (PairBlock& block : blocks) {
                const int blockId = static_cast<int>(prob.pairBlocks.size());
                prob.pairsOf[static_cast<size_t>(block.objA)].push_back(blockId);
                prob.pairsOf[static_cast<size_t>(block.objB)].push_back(blockId);
                prob.pairBlocks.push_back(std::move(block));
            }
        });

    if (parallelStats != nullptr) parallelStats->merge(pool.stats());
    return prob;
}

}  // namespace streak

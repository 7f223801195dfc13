#include "post/ripup.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "check/audit.hpp"
#include "grid/routing_grid.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"

namespace streak::post {

namespace {

/// Usage bookkeeping for a per-object solution. The blocker queries run
/// once per unrouted object per round, so their scratch (tight-edge and
/// blocker lists) is owned here and reused instead of being reallocated
/// per call; blockers always come back sorted ascending.
class UsageState {
public:
    explicit UsageState(const RoutingProblem& prob)
        : prob_(prob), usage_(prob.design->grid) {
        for (int i = 0; i < prob.numObjects(); ++i) add(i, -1);
    }

    void syncFrom(const std::vector<int>& chosen) {
        usage_.clear();
        for (size_t i = 0; i < chosen.size(); ++i) {
            add(static_cast<int>(i), chosen[i]);
        }
    }

    void add(int obj, int cand) {
        if (cand < 0) return;
        const RouteCandidate& c =
            prob_.candidates[static_cast<size_t>(obj)][static_cast<size_t>(cand)];
        for (const auto& [edge, amount] : c.edgeUse) usage_.add(edge, amount);
        for (const auto& [cell, amount] : c.viaUse()) {
            usage_.addVias(cell, amount);
        }
    }
    void remove(int obj, int cand) {
        if (cand < 0) return;
        const RouteCandidate& c =
            prob_.candidates[static_cast<size_t>(obj)][static_cast<size_t>(cand)];
        for (const auto& [edge, amount] : c.edgeUse) {
            usage_.remove(edge, amount);
        }
        for (const auto& [cell, amount] : c.viaUse()) {
            usage_.removeVias(cell, amount);
        }
    }

    [[nodiscard]] bool fits(const RouteCandidate& c) const {
        for (const auto& [edge, amount] : c.edgeUse) {
            if (usage_.remaining(edge) < amount) return false;
        }
        for (const auto& [cell, amount] : c.viaUse()) {
            if (usage_.viaRemaining(cell) < amount) return false;
        }
        return true;
    }

    /// Objects whose committed routes keep candidate `c` from fitting,
    /// sorted ascending (the processing order of the rip cascade).
    [[nodiscard]] const std::vector<int>& blockersOf(
        const RouteCandidate& c, const std::vector<int>& chosen) {
        blockers_.clear();
        tightEdges_.clear();
        for (const auto& [edge, amount] : c.edgeUse) {
            if (usage_.remaining(edge) < amount) tightEdges_.push_back(edge);
        }
        if (tightEdges_.empty()) return blockers_;
        std::sort(tightEdges_.begin(), tightEdges_.end());
        for (size_t i = 0; i < chosen.size(); ++i) {
            if (chosen[i] < 0) continue;
            const RouteCandidate& other =
                prob_.candidates[i][static_cast<size_t>(chosen[i])];
            for (const auto& [edge, amount] : other.edgeUse) {
                if (std::binary_search(tightEdges_.begin(), tightEdges_.end(),
                                       edge)) {
                    blockers_.push_back(static_cast<int>(i));
                    break;
                }
            }
        }
        return blockers_;
    }

private:
    const RoutingProblem& prob_;
    grid::EdgeUsage usage_;
    std::vector<int> tightEdges_;
    std::vector<int> blockers_;
};

}  // namespace

RipupResult ripupAndReroute(const RoutingProblem& prob, RoutingSolution* sol,
                            int maxRounds) {
    STREAK_SPAN("post/ripup");
    RipupResult result;
    UsageState state(prob);
    state.syncFrom(sol->chosen);
    std::vector<std::uint8_t> everRipped(
        static_cast<size_t>(prob.numObjects()), 0);

    int roundsRun = 0;
    for (int round = 0; round < maxRounds; ++round) {
        ++roundsRun;
        bool progress = false;
        for (int i = 0; i < prob.numObjects(); ++i) {
            if (sol->chosen[static_cast<size_t>(i)] >= 0) continue;
            const auto& cands = prob.candidates[static_cast<size_t>(i)];
            if (cands.empty()) continue;

            // Direct fit first (capacity may have been freed by earlier
            // rips).
            bool placed = false;
            for (size_t j = 0; j < cands.size() && !placed; ++j) {
                if (state.fits(cands[j])) {
                    sol->chosen[static_cast<size_t>(i)] = static_cast<int>(j);
                    state.add(i, static_cast<int>(j));
                    ++result.objectsRecovered;
                    placed = true;
                    progress = true;
                }
            }
            if (placed) continue;

            // Rip the blockers of the cheapest candidate, place it, then
            // try to re-route the victims elsewhere. Copy the blocker
            // list out of the scratch: the cascade below runs more
            // queries through the same state.
            const RouteCandidate& target = cands.front();
            const std::vector<int> victims =
                state.blockersOf(target, sol->chosen);
            if (victims.empty()) continue;  // blocked by blockages, not nets
            for (const int v : victims) {
                state.remove(v, sol->chosen[static_cast<size_t>(v)]);
                sol->chosen[static_cast<size_t>(v)] = -1;
                if (!everRipped[static_cast<size_t>(v)]) {
                    everRipped[static_cast<size_t>(v)] = 1;
                    ++result.objectsRipped;
                }
            }
            if (!state.fits(target)) continue;  // still blocked; victims
                                                // retry in the next sweep
            sol->chosen[static_cast<size_t>(i)] = 0;
            state.add(i, 0);
            ++result.objectsRecovered;
            progress = true;

            for (const int v : victims) {
                const auto& vc = prob.candidates[static_cast<size_t>(v)];
                for (size_t j = 0; j < vc.size(); ++j) {
                    if (state.fits(vc[j])) {
                        sol->chosen[static_cast<size_t>(v)] =
                            static_cast<int>(j);
                        state.add(v, static_cast<int>(j));
                        break;
                    }
                }
            }
        }
        if (!progress) break;
    }

    for (int v = 0; v < prob.numObjects(); ++v) {
        if (everRipped[static_cast<size_t>(v)] &&
            sol->chosen[static_cast<size_t>(v)] < 0) {
            ++result.objectsLost;
        }
    }
    if (obs::detailEnabled()) {
        obs::Session& sess = obs::session();
        sess.counter("post/ripup.rounds").add(roundsRun);
        sess.counter("post/ripup.objects_ripped").add(result.objectsRipped);
        sess.counter("post/ripup.objects_recovered")
            .add(result.objectsRecovered);
        sess.counter("post/ripup.objects_lost").add(result.objectsLost);
    }
    sol->objective = solutionObjective(prob, sol->chosen);
    // Rip-up must hand back a capacity-feasible assignment no matter how
    // the domino cascade ended.
    STREAK_DEEP_AUDIT(check::auditSolution(prob, *sol));
    return result;
}

}  // namespace streak::post

#include "core/pd_solver.hpp"

#include <algorithm>
#include <limits>

#include "check/audit.hpp"
#include "grid/routing_grid.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "robust/fault.hpp"

namespace streak {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

class PdState {
public:
    explicit PdState(const RoutingProblem& prob)
        : prob_(prob), usage_(prob.design->grid),
          chosen_(static_cast<size_t>(prob.numObjects()), -1),
          decided_(static_cast<size_t>(prob.numObjects()), false) {
        alive_.reserve(static_cast<size_t>(prob.numObjects()));
        for (const auto& cands : prob.candidates) {
            alive_.emplace_back(cands.size(), true);
        }
    }

    PdResult run() {
        PdResult result;
        // Objects with no candidate at all are non-routable up front.
        for (int i = 0; i < prob_.numObjects(); ++i) {
            if (prob_.candidates[static_cast<size_t>(i)].empty()) {
                decided_[static_cast<size_t>(i)] = true;
            }
        }
        for (;;) {
            // Tick point: one poll per committed object (each iteration
            // sweeps every alive candidate).
            prob_.opts.control.checkpoint("pd/iteration");
            STREAK_FAULT_POINT("pd/iteration");
            // Line 5-6: pick the undecided object / candidate with the
            // minimum c(i, j) + c'(i, j) among currently feasible ones.
            int bestObj = -1;
            int bestCand = -1;
            double bestCost = kInf;
            for (int i = 0; i < prob_.numObjects(); ++i) {
                if (decided_[static_cast<size_t>(i)]) continue;
                const auto& cands = prob_.candidates[static_cast<size_t>(i)];
                for (size_t j = 0; j < cands.size(); ++j) {
                    if (!alive_[static_cast<size_t>(i)][j]) continue;
                    const double c = cands[j].cost +
                                     cPrime(i, static_cast<int>(j));
                    if (c < bestCost) {
                        bestCost = c;
                        bestObj = i;
                        bestCand = static_cast<int>(j);
                    }
                }
            }
            // Objects whose candidate sets drained are skipped (s_p = 1).
            bool anyUndecided = false;
            for (int i = 0; i < prob_.numObjects(); ++i) {
                if (decided_[static_cast<size_t>(i)] || i == bestObj) continue;
                const auto& alive = alive_[static_cast<size_t>(i)];
                if (std::none_of(alive.begin(), alive.end(),
                                 [](bool a) { return a; })) {
                    decided_[static_cast<size_t>(i)] = true;
                } else {
                    anyUndecided = true;
                }
            }
            if (bestObj < 0) break;  // everything decided or dead

            // Line 7: commit; the dual objective rises by the admitted
            // cost (alpha_{ij} hits its constraint (6b) bound).
            STREAK_ASSERT(!decided_[static_cast<size_t>(bestObj)],
                          "object {} picked twice by the primal-dual loop",
                          bestObj);
            ++result.iterations;
            result.dualBound +=
                minAliveBaseCost(bestObj);  // certified per-object bound
            chosen_[static_cast<size_t>(bestObj)] = bestCand;
            decided_[static_cast<size_t>(bestObj)] = true;

            // Line 8: update capacities.
            const RouteCandidate& cand =
                prob_.candidates[static_cast<size_t>(bestObj)]
                                [static_cast<size_t>(bestCand)];
            for (const auto& [edge, amount] : cand.edgeUse) {
                usage_.add(edge, amount);
            }
            for (const auto& [cell, amount] : cand.viaUse()) {
                usage_.addVias(cell, amount);
            }
            // Line 9: remove primal solutions made infeasible by the
            // reduced capacities.
            pruneInfeasible();

            if (!anyUndecided) break;
        }

        result.solution.chosen = chosen_;
        result.solution.objective = solutionObjective(prob_, chosen_);
        // Counters are accumulated locally above and flushed once, so the
        // gate check is off the per-iteration path.
        if (obs::detailEnabled()) {
            obs::Session& sess = obs::session();
            sess.counter("solve/pd.iterations").add(result.iterations);
            sess.counter("solve/pd.pruned_candidates").add(prunedCandidates_);
        }
        // The dual bound certifies weak duality; a violation means the
        // capacity pruning admitted an infeasible pick somewhere.
        STREAK_INVARIANT(
            result.dualBound <= result.solution.objective + 1e-6,
            "dual bound {} exceeds primal objective {} after {} iterations",
            result.dualBound, result.solution.objective, result.iterations);
        STREAK_DEEP_AUDIT(check::auditSolution(prob_, result.solution));
        return result;
    }

private:
    /// Linearized pair cost c'(i, j) per Eq. (5): decided group mates
    /// contribute their exact pair cost; undecided ones their minimum
    /// feasible pair cost.
    [[nodiscard]] double cPrime(int i, int j) const {
        double total = 0.0;
        for (const int block : prob_.pairsOf[static_cast<size_t>(i)]) {
            const int p = prob_.pairOther(block, i);
            const int cp = chosen_[static_cast<size_t>(p)];
            if (cp >= 0) {
                total += prob_.pairCost(block, i, j, cp);
            } else if (!decided_[static_cast<size_t>(p)]) {
                double best = kInf;
                const auto& alive = alive_[static_cast<size_t>(p)];
                for (size_t q = 0; q < alive.size(); ++q) {
                    if (!alive[q]) continue;
                    best = std::min(best, prob_.pairCost(block, i, j,
                                                         static_cast<int>(q)));
                }
                if (best < kInf) total += best;
            }
        }
        return total;
    }

    [[nodiscard]] double minAliveBaseCost(int i) const {
        double best = kInf;
        const auto& cands = prob_.candidates[static_cast<size_t>(i)];
        for (size_t j = 0; j < cands.size(); ++j) {
            if (alive_[static_cast<size_t>(i)][j]) {
                best = std::min(best, cands[j].cost);
            }
        }
        return best < kInf ? best : 0.0;
    }

    void pruneInfeasible() {
        for (int i = 0; i < prob_.numObjects(); ++i) {
            if (decided_[static_cast<size_t>(i)]) continue;
            const auto& cands = prob_.candidates[static_cast<size_t>(i)];
            for (size_t j = 0; j < cands.size(); ++j) {
                if (!alive_[static_cast<size_t>(i)][j]) continue;
                for (const auto& [edge, amount] : cands[j].edgeUse) {
                    if (usage_.remaining(edge) < amount) {
                        alive_[static_cast<size_t>(i)][j] = false;
                        ++prunedCandidates_;
                        break;
                    }
                }
                if (!alive_[static_cast<size_t>(i)][j]) continue;
                for (const auto& [cell, amount] : cands[j].viaUse()) {
                    if (usage_.viaRemaining(cell) < amount) {
                        alive_[static_cast<size_t>(i)][j] = false;
                        ++prunedCandidates_;
                        break;
                    }
                }
            }
        }
    }

    const RoutingProblem& prob_;
    grid::EdgeUsage usage_;
    std::vector<int> chosen_;
    std::vector<bool> decided_;
    std::vector<std::vector<bool>> alive_;
    long prunedCandidates_ = 0;
};

}  // namespace

PdResult solvePrimalDual(const RoutingProblem& prob) {
    STREAK_SPAN("solve/pd");
    return PdState(prob).run();
}

}  // namespace streak

// Post-routing refinement (Sec. IV-C, Algorithm 4, Fig. 10).
//
// Sinks whose source-to-sink distance falls too far below their family's
// maximum get capacity-legal twisting detours: the violating pin's
// terminal rectilinear connection is shifted sideways (vertical shifting
// for horizontal connections and vice versa), adding 2*s of wire per
// shift s, until the deviation drops under the threshold. Only the
// violating connection moves; the rest of the topology — and hence its
// regularity — is preserved.
#pragma once

#include "core/distance.hpp"
#include "core/problem.hpp"
#include "core/solution.hpp"

namespace streak::post {

struct RefinementResult {
    int violatingGroupsBefore = 0;
    int violatingGroupsAfter = 0;
    int pinsConsidered = 0;
    int pinsFixed = 0;
    long addedWirelength = 0;
    /// Initial per-group thresholds (reused for the "after" analysis).
    std::vector<int> thresholds;
    /// Group-indexed violation flags of the "after" analysis (1 = the
    /// group still violates); the flow publishes them as
    /// StreakResult::groupDistanceAfter.
    std::vector<char> groupViolatingAfter;
    /// Stats of the parallel distance analyses and detour waves.
    parallel::RegionStats parallelStats;
};

/// Refine `routed` in place. Thresholds derive from the initial distances
/// per the paper (thresholdFraction of the max initial source-to-sink
/// distance per group).
///
/// Groups whose detour search regions touch disjoint G-Cell rectangles
/// refine concurrently (`prob.opts.threads`); conflicting groups are
/// ordered into waves that preserve the sequential group order, so the
/// refined design is byte-identical for every thread count.
RefinementResult refineDistances(const RoutingProblem& prob,
                                 RoutedDesign* routed);

}  // namespace streak::post

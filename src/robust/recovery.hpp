// Degradation-ladder policy (DESIGN.md "Robustness").
//
// The flow's graceful-degradation ladder formalizes the fallbacks that
// used to be ad-hoc (A* window -> full grid, ILP timeout -> PD result):
// when a stage throws a *recoverable* StreakError — deadline share
// expired, injected fault — the flow falls back to the cheaper engine or
// the last valid partial solution instead of failing the run. Each rung taken records a `robust/degraded.<rung>`
// counter, a span event, and a Degradation entry in the StreakResult so
// run reports show exactly what degraded. Degraded output still passes
// the deep auditors (auditSolution / auditRoutedDesign).
#pragma once

#include <string>

namespace streak::robust {

/// Per-stage switches; all on by default. Turning one off converts that
/// rung's recoverable failures into structured errors.
struct RecoveryPolicy {
    /// Master switch for the whole ladder.
    bool enabled = true;
    /// Warm-start PD failed before an ILP solve: continue the ILP cold.
    bool warmStartOptional = true;
    /// ILP solve failed or ran out of budget: keep the PD solution.
    bool ilpFallbackToPd = true;
    /// Distance analysis failed: skip it (report zero violations).
    bool distanceSkipOnFailure = true;
    /// Post optimization failed mid-way: restore the pre-post routing.
    bool postRollback = true;
};

/// One rung taken during a run, surfaced in StreakResult::degradations
/// and the JSON run report's "robust" section.
struct Degradation {
    std::string stage;   ///< flow stage ("flow/solve", ...)
    std::string site;    ///< fault site of the absorbed error, if any
    std::string rung;    ///< counter suffix ("solve.ilp_to_pd", ...)
    std::string message; ///< the absorbed error's description
};

}  // namespace streak::robust

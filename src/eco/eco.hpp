// ECO re-routing (DESIGN.md "ECO"): runEco() applies deltas to a copy of
// a checkpointed design and re-routes it from scratch with the
// checkpoint's options. Nothing is carried over: the primal-dual argmin
// and post optimization read shared edge usage across every group.
// equivalent() checks the result against an independent cold re-route
// (tests/eco_test.cpp, perfbench's traced eco-chain replay).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/signal.hpp"
#include "eco/checkpoint.hpp"
#include "eco/delta.hpp"
#include "flow/streak.hpp"
#include "obs/json.hpp"

namespace streak::eco {

/// Output of one ECO re-route. Owns the mutated design because `sub`
/// points into it (RoutingProblem holds a Design*, EdgeUsage a grid).
struct EcoResult {
    /// The checkpointed design with every delta applied.
    std::unique_ptr<Design> design;
    /// The full flow result of re-routing *design. Never null.
    std::unique_ptr<StreakResult> sub;
    /// Copies of sub's headline fields.
    Metrics metrics;
    int distanceViolationsBefore = 0;
    int distanceViolationsAfter = 0;
    /// Every group, ascending: the re-route solves all of them.
    std::vector<int> resolvedGroups;
    int totalGroups = 0;
};

/// Apply `deltas` to the checkpointed design and re-route it with the
/// checkpoint's options. `threadsOverride` >= 0 replaces the
/// checkpoint's thread count (the result is identical either way).
/// Raises robust::StreakException on invalid deltas or when the
/// re-route fails without a recovery rung.
[[nodiscard]] EcoResult runEco(const Checkpoint& ckpt,
                               const std::vector<Delta>& deltas,
                               int threadsOverride = -1);

/// Freeze an ECO result so another delta batch can chain on top of it;
/// the same freeze as a `streak route --checkpoint` run.
[[nodiscard]] Checkpoint makeCheckpoint(const EcoResult& eco,
                                        const StreakOptions& opts);

/// Byte-level equivalence between an ECO result and a cold re-route of
/// the same mutated design: metrics (double fields compared
/// bit-for-bit), per-edge and per-cell usage, every bit's topology and
/// trunk layers, per-group cluster partitions, the unrouted set and the
/// per-group distance flags. On mismatch returns false and, when `diff`
/// is non-null, stores a description of the first difference.
[[nodiscard]] bool equivalent(const EcoResult& eco, const StreakResult& cold,
                              std::string* diff = nullptr);

/// Run-report document for an ECO run: the standard streak-run-report
/// of the re-route (validated by tools/report_check) plus an "eco"
/// section with the group counts and the run's wall time.
[[nodiscard]] obs::json::Value buildEcoReport(const EcoResult& eco,
                                              const StreakOptions& opts,
                                              double seconds);

}  // namespace streak::eco

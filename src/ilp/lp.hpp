// Dense bounded-variable primal simplex for the LP relaxations used by
// the branch-and-bound ILP solver. Small and deterministic; adequate for
// the per-component subproblems Streak produces.
//
// One engine (DESIGN.md "Performance"): a two-phase simplex on a flat
// row-major tableau. Finite upper bounds are handled by nonbasic-at-upper
// statuses and bound flips instead of one explicit `<=` row + artificial
// per bounded variable, which roughly halves the row count on Streak's
// 0/1 selection models and shrinks every pivot's row sweep. Every solve
// is cold: branch-and-bound re-solves each node from scratch. The
// original explicit-row formulation lives on as the test oracle in
// tests/lp_oracle.hpp.
#pragma once

#include "ilp/model.hpp"
#include "robust/control.hpp"

namespace streak::ilp {

struct LpOptions {
    /// Deadline/cancellation ticket polled every few hundred pivots
    /// (idle by default; never influences pivot choices).
    robust::Ticket control;
};

/// Solve the model as a *continuous* LP (integrality flags ignored).
/// Finite bounds are handled by shifting lower bounds to zero and keeping
/// upper bounds implicit in the simplex. Status is Optimal, Infeasible,
/// or Unbounded.
[[nodiscard]] Solution solveLp(const Model& model);
[[nodiscard]] Solution solveLp(const Model& model, const LpOptions& opts);

}  // namespace streak::ilp

// Production LP solver: bounded-variable primal revised simplex.
//
// Two phases (composite infeasibility minimization, then the true
// objective), sparse LU basis factorization with PFI eta updates
// (lp/basis.h), Devex pricing over a maintained set of dual-infeasible
// candidate columns, Bland's rule as an anti-cycling fallback, and warm
// starts from a previous Basis — the feature the nwlb controller uses when
// re-optimizing every few minutes on a new traffic matrix (§3, §8.2).
#pragma once

#include "lp/model.h"
#include "lp/solution.h"

namespace nwlb::lp {

/// Solves `model` (minimization).  When `warm` is non-null and structurally
/// compatible (same variable and row counts) the solve starts from that
/// basis; otherwise from the all-logical basis.
Solution solve_revised(const Model& model, const Options& options = {},
                       const Basis* warm = nullptr);

/// Default entry point used throughout nwlb: the revised simplex.
inline Solution solve(const Model& model, const Options& options = {},
                      const Basis* warm = nullptr) {
  return solve_revised(model, options, warm);
}

}  // namespace nwlb::lp

// Optimality certificate of an LP solution, checked against the model alone.
//
// A point x with row duals y is a proven optimum of an LpModel when x is
// primal feasible, y is dual feasible and the duality gap vanishes. The
// checker reads only the model (variables, bounds, objective, constraint
// terms, relations, rhs) and the solution's values and duals, so it shares
// nothing with either simplex engine: LpSolver runs it on every revised
// result before keeping it, and a result that fails twice is discarded like
// an infeasible one.
//
// Conventions are those of LpSolution::duals: y_i = d(objective)/d(rhs_i) in
// the model's own sense. For a maximisation a <= row's dual is >= 0 and a >=
// row's is <= 0, and a variable whose reduced cost r_j = c_j − Σ_i y_i·a_ij
// is positive (negative) gains by rising (falling), so it must rest at a
// finite upper (lower) bound. Minimisation flips every sign.
#pragma once

#include <vector>

#include "solver/lp_model.h"

namespace oef::solver {

/// Residuals of the certificate, each 0 for an exact optimum.
struct CertificateCheck {
  /// Largest violation of a constraint row or a variable bound at x.
  double primal_residual = 0.0;
  /// Largest wrong-sign part of a row dual, or of a reduced cost that would
  /// move its variable towards an infinite bound, over 1 + max_j |c_j|.
  double dual_residual = 0.0;
  /// |c·x − (b·y + Σ_j r_j·bound_j)| over 1 + |c·x|, where bound_j is the
  /// bound r_j's sign holds variable j at.
  double relative_gap = 0.0;

  /// True when every residual is at most `tol`.
  [[nodiscard]] bool passes(double tol) const {
    return primal_residual <= tol && dual_residual <= tol && relative_gap <= tol;
  }
};

/// Checks (values, duals) against `model`. Sizes that do not match the model
/// give infinite residuals.
[[nodiscard]] CertificateCheck check_certificate(const LpModel& model,
                                                 const std::vector<double>& values,
                                                 const std::vector<double>& duals);

}  // namespace oef::solver

#include "solver/certificate.h"

#include <algorithm>
#include <cmath>

namespace oef::solver {

CertificateCheck check_certificate(const LpModel& model, const std::vector<double>& values,
                                   const std::vector<double>& duals) {
  const auto& variables = model.variables();
  const auto& constraints = model.constraints();
  CertificateCheck out;
  if (values.size() != variables.size() || duals.size() != constraints.size()) {
    out.primal_residual = out.dual_residual = out.relative_gap = kInf;
    return out;
  }
  // +1 when the objective is maximised: then a positive sense·y is the right
  // sign on a <= row and a positive sense·r_j asks variable j to rise.
  const double sense = model.sense() == Sense::kMaximize ? 1.0 : -1.0;

  const double objective = model.objective_value(values);
  std::vector<double> reduced(variables.size());
  double max_cost = 0.0;
  for (std::size_t v = 0; v < variables.size(); ++v) {
    reduced[v] = variables[v].objective;
    max_cost = std::max(max_cost, std::abs(variables[v].objective));
  }

  double primal = 0.0;
  double wrong_sign = 0.0;
  double dual_objective = 0.0;
  for (std::size_t i = 0; i < constraints.size(); ++i) {
    const Constraint& constraint = constraints[i];
    const double y = duals[i];
    const double excess = constraint.expr.evaluate(values) - constraint.rhs;
    switch (constraint.relation) {
      case Relation::kLessEqual:
        primal = std::max(primal, excess);
        wrong_sign = std::max(wrong_sign, -sense * y);
        break;
      case Relation::kGreaterEqual:
        primal = std::max(primal, -excess);
        wrong_sign = std::max(wrong_sign, sense * y);
        break;
      case Relation::kEqual:
        primal = std::max(primal, std::abs(excess));
        break;
    }
    dual_objective += constraint.rhs * y;
    for (const LinearTerm& term : constraint.expr.terms()) {
      reduced[term.var] -= y * term.coeff;
    }
  }

  for (std::size_t v = 0; v < variables.size(); ++v) {
    const Variable& var = variables[v];
    primal = std::max({primal, var.lower - values[v], values[v] - var.upper});
    const double r = reduced[v];
    if (r == 0.0) continue;
    const double bound = sense * r > 0.0 ? var.upper : var.lower;
    if (std::isfinite(bound)) {
      dual_objective += r * bound;
    } else {
      // Moving towards an infinite bound would improve the objective
      // without limit: all of r is wrong-sign.
      wrong_sign = std::max(wrong_sign, std::abs(r));
      dual_objective += r * values[v];
    }
  }

  out.primal_residual = primal;
  out.dual_residual = wrong_sign / (1.0 + max_cost);
  out.relative_gap = std::abs(objective - dual_objective) / (1.0 + std::abs(objective));
  return out;
}

}  // namespace oef::solver

#include "solver/lp_model.h"

#include <cmath>

#include "common/check.h"

namespace oef::solver {

LinearExpr& LinearExpr::add(VarId var, double coeff) {
  if (coeff != 0.0) terms_.push_back({var, coeff});
  return *this;
}

double LinearExpr::evaluate(const std::vector<double>& values) const {
  double acc = 0.0;
  for (const auto& [var, coeff] : terms_) {
    OEF_CHECK(var < values.size());
    acc += coeff * values[var];
  }
  return acc;
}

VarId LpModel::add_variable(double lower, double upper, double objective) {
  OEF_CHECK_MSG(lower <= upper, "variable bounds crossed");
  variables_.push_back(Variable{lower, upper, objective});
  return variables_.size() - 1;
}

std::size_t LpModel::add_constraint(Constraint constraint) {
  for (const auto& term : constraint.expr.terms()) {
    OEF_CHECK_MSG(term.var < variables_.size(), "constraint references unknown variable");
  }
  constraints_.push_back(std::move(constraint));
  return constraints_.size() - 1;
}

std::size_t LpModel::add_constraint(LinearExpr expr, Relation relation, double rhs) {
  return add_constraint(Constraint{std::move(expr), relation, rhs});
}

void LpModel::remove_constraints(const std::vector<std::size_t>& sorted_indices) {
  if (sorted_indices.empty()) return;
  std::vector<Constraint> kept;
  OEF_CHECK(sorted_indices.size() <= constraints_.size());
  kept.reserve(constraints_.size() - sorted_indices.size());
  std::size_t next = 0;
  for (std::size_t c = 0; c < constraints_.size(); ++c) {
    if (next < sorted_indices.size() && sorted_indices[next] == c) {
      ++next;
      continue;
    }
    kept.push_back(std::move(constraints_[c]));
  }
  OEF_CHECK_MSG(next == sorted_indices.size(),
                "remove_constraints indices must be sorted, unique and in range");
  constraints_ = std::move(kept);
}

double LpModel::objective_value(const std::vector<double>& values) const {
  OEF_CHECK(values.size() == variables_.size());
  double acc = 0.0;
  for (std::size_t v = 0; v < variables_.size(); ++v) acc += variables_[v].objective * values[v];
  return acc;
}

bool LpModel::is_feasible(const std::vector<double>& values, double tol) const {
  if (values.size() != variables_.size()) return false;
  for (std::size_t v = 0; v < variables_.size(); ++v) {
    if (values[v] < variables_[v].lower - tol) return false;
    if (values[v] > variables_[v].upper + tol) return false;
  }
  for (const auto& constraint : constraints_) {
    const double lhs = constraint.expr.evaluate(values);
    switch (constraint.relation) {
      case Relation::kLessEqual:
        if (lhs > constraint.rhs + tol) return false;
        break;
      case Relation::kGreaterEqual:
        if (lhs < constraint.rhs - tol) return false;
        break;
      case Relation::kEqual:
        if (std::abs(lhs - constraint.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

}  // namespace oef::solver

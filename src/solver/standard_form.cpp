#include "solver/standard_form.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace oef::solver::internal {

StandardForm build_standard_form(const LpModel& model, bool native_upper_bounds) {
  StandardForm sf;
  const auto& vars = model.variables();
  sf.var_shift.assign(vars.size(), 0.0);
  sf.sense_sign = model.sense() == Sense::kMinimize ? 1.0 : -1.0;

  // Column layout per variable; two-sided bounds become either a native
  // column upper bound or an extra row afterwards.
  sf.cols_of_var.assign(vars.size(), {});
  struct UpperRow {
    std::size_t var;
    double bound;  // in model space
  };
  std::vector<UpperRow> upper_rows;

  for (std::size_t v = 0; v < vars.size(); ++v) {
    const Variable& var = vars[v];
    const bool lower_finite = std::isfinite(var.lower);
    const bool upper_finite = std::isfinite(var.upper);
    if (lower_finite) {
      // x = y + lower, y >= 0.
      sf.var_shift[v] = var.lower;
      sf.columns.push_back({v, 1.0});
      sf.cols_of_var[v].push_back(sf.columns.size() - 1);
      sf.col_upper.push_back(kInf);
      if (upper_finite) {
        if (native_upper_bounds) {
          sf.col_upper.back() = var.upper - var.lower;
        } else {
          upper_rows.push_back({v, var.upper});
        }
      }
    } else if (upper_finite) {
      // x = upper - y, y >= 0.
      sf.var_shift[v] = var.upper;
      sf.columns.push_back({v, -1.0});
      sf.cols_of_var[v].push_back(sf.columns.size() - 1);
      sf.col_upper.push_back(kInf);
    } else {
      // Free: x = y+ - y-.
      sf.columns.push_back({v, 1.0});
      sf.cols_of_var[v].push_back(sf.columns.size() - 1);
      sf.columns.push_back({v, -1.0});
      sf.cols_of_var[v].push_back(sf.columns.size() - 1);
      sf.col_upper.push_back(kInf);
      sf.col_upper.push_back(kInf);
    }
  }

  const std::size_t n = sf.columns.size();
  sf.cost.assign(n, 0.0);
  for (std::size_t v = 0; v < vars.size(); ++v) {
    const double c = sf.sense_sign * vars[v].objective;
    for (const std::size_t col : sf.cols_of_var[v]) sf.cost[col] += c * sf.columns[col].sign;
  }

  const auto add_row = [&](const LinearExpr& expr, Relation rel, double rhs, RowRef ref) {
    std::vector<double> row(n, 0.0);
    double shift_total = 0.0;
    for (const auto& [var, coeff] : expr.terms()) {
      shift_total += coeff * sf.var_shift[var];
      for (const std::size_t col : sf.cols_of_var[var]) {
        row[col] += coeff * sf.columns[col].sign;
      }
    }
    double b = rhs - shift_total;
    // Zero-rhs >= rows are flipped into <= form: they then start on a slack
    // basis (no artificial) and can be relaxed by the anti-degeneracy
    // perturbation without ever shrinking the feasible region.
    if (b < 0.0 || (b == 0.0 && rel == Relation::kGreaterEqual)) {
      for (double& a : row) a = -a;
      b = -b;
      ref.sign = -ref.sign;
      if (rel == Relation::kLessEqual) {
        rel = Relation::kGreaterEqual;
      } else if (rel == Relation::kGreaterEqual) {
        rel = Relation::kLessEqual;
      }
    }
    sf.rows.push_back(std::move(row));
    sf.relations.push_back(rel);
    sf.rhs.push_back(b);
    sf.row_refs.push_back(ref);
  };

  const auto& constraints = model.constraints();
  for (std::size_t c = 0; c < constraints.size(); ++c) {
    add_row(constraints[c].expr, constraints[c].relation, constraints[c].rhs,
            RowRef{c, 1.0});
  }
  for (const auto& [var, bound] : upper_rows) {
    LinearExpr expr;
    expr.add(var, 1.0);
    add_row(expr, Relation::kLessEqual, bound, RowRef{SIZE_MAX, 1.0});
  }
  return sf;
}

StandardRow build_standard_row(const StandardForm& sf, const Constraint& constraint,
                               std::size_t constraint_index) {
  StandardRow out;
  out.coeffs.assign(sf.columns.size(), 0.0);
  out.ref = RowRef{constraint_index, 1.0};
  double shift_total = 0.0;
  for (const auto& [var, coeff] : constraint.expr.terms()) {
    OEF_CHECK_MSG(var < sf.cols_of_var.size(),
                  "incremental row references a variable unknown to the standard form");
    shift_total += coeff * sf.var_shift[var];
    for (const std::size_t col : sf.cols_of_var[var]) {
      out.coeffs[col] += coeff * sf.columns[col].sign;
    }
  }
  out.rhs = constraint.rhs - shift_total;
  out.relation = constraint.relation;

  if (out.relation == Relation::kGreaterEqual) {
    for (double& a : out.coeffs) a = -a;
    out.rhs = -out.rhs;
    out.ref.sign = -out.ref.sign;
    out.relation = Relation::kLessEqual;
  }
  return out;
}

void equilibrate(StandardForm& sf, std::vector<double>& row_scale,
                 std::vector<double>& col_scale) {
  const std::size_t m = sf.rows.size();
  const std::size_t n = sf.cost.size();
  row_scale.assign(m, 1.0);
  col_scale.assign(n, 1.0);
  for (std::size_t i = 0; i < m; ++i) {
    double biggest = 0.0;
    for (const double a : sf.rows[i]) biggest = std::max(biggest, std::abs(a));
    if (biggest > 0.0) row_scale[i] = 1.0 / biggest;
    for (double& a : sf.rows[i]) a *= row_scale[i];
    sf.rhs[i] *= row_scale[i];
  }
  for (std::size_t j = 0; j < n; ++j) {
    double biggest = 0.0;
    for (std::size_t i = 0; i < m; ++i) biggest = std::max(biggest, std::abs(sf.rows[i][j]));
    if (biggest > 0.0) col_scale[j] = 1.0 / biggest;
    for (std::size_t i = 0; i < m; ++i) sf.rows[i][j] *= col_scale[j];
    sf.cost[j] *= col_scale[j];
    // Scaled column y' = y / col_scale, so a finite bound scales the same way.
    if (j < sf.col_upper.size() && std::isfinite(sf.col_upper[j])) {
      sf.col_upper[j] /= col_scale[j];
    }
  }
}

}  // namespace oef::solver::internal

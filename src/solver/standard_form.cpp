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

  const auto add_column = [&](std::size_t v, double sign) {
    sf.cols_of_var[v].push_back(sf.columns.size());
    sf.columns.push_back({v, sign});
    sf.col_upper.push_back(kInf);
  };
  for (std::size_t v = 0; v < vars.size(); ++v) {
    const Variable& var = vars[v];
    const bool upper_finite = std::isfinite(var.upper);
    if (std::isfinite(var.lower)) {
      // x = y + lower, y >= 0.
      sf.var_shift[v] = var.lower;
      add_column(v, 1.0);
      if (upper_finite && native_upper_bounds) {
        sf.col_upper.back() = var.upper - var.lower;
      } else if (upper_finite) {
        upper_rows.push_back({v, var.upper});
      }
    } else if (upper_finite) {
      // x = upper - y, y >= 0.
      sf.var_shift[v] = var.upper;
      add_column(v, -1.0);
    } else {
      // Free: x = y+ - y-.
      add_column(v, 1.0);
      add_column(v, -1.0);
    }
  }

  const std::size_t n = sf.columns.size();
  sf.cost.assign(n, 0.0);
  for (std::size_t v = 0; v < vars.size(); ++v) {
    const double c = sf.sense_sign * vars[v].objective;
    for (const std::size_t col : sf.cols_of_var[v]) sf.cost[col] += c * sf.columns[col].sign;
  }

  const auto& constraints = model.constraints();
  for (std::size_t c = 0; c < constraints.size(); ++c) {
    sf.rows.push_back(build_standard_row(sf, constraints[c], c));
  }
  for (const auto& [var, bound] : upper_rows) {
    sf.rows.push_back(build_standard_row(
        sf, Constraint{LinearExpr{}.add(var, 1.0), Relation::kLessEqual, bound}, SIZE_MAX));
  }
  return sf;
}

void StandardRow::negate() {
  for (RowEntry& entry : entries) entry.value = -entry.value;
  rhs = -rhs;
  ref.sign = -ref.sign;
  if (relation != Relation::kEqual) {
    relation = relation == Relation::kLessEqual ? Relation::kGreaterEqual : Relation::kLessEqual;
  }
}

StandardRow build_standard_row(const StandardForm& sf, const Constraint& constraint,
                               std::size_t constraint_index) {
  StandardRow row;
  row.relation = constraint.relation;
  row.ref = RowRef{constraint_index, 1.0};
  double shift_total = 0.0;
  for (const auto& [var, coeff] : constraint.expr.terms()) {
    OEF_CHECK_MSG(var < sf.cols_of_var.size(),
                  "row references a variable unknown to the standard form");
    shift_total += coeff * sf.var_shift[var];
    for (const std::size_t col : sf.cols_of_var[var]) {
      row.entries.push_back({col, coeff * sf.columns[col].sign});
    }
  }
  row.rhs = constraint.rhs - shift_total;

  // A stable sort keeps each column's terms in term order, so every sum
  // below rounds as the terms' running total in model order would.
  std::stable_sort(row.entries.begin(), row.entries.end(),
                   [](const RowEntry& a, const RowEntry& b) { return a.col < b.col; });
  std::size_t kept = 0;
  for (std::size_t i = 0; i < row.entries.size();) {
    const std::size_t col = row.entries[i].col;
    double sum = 0.0;
    for (; i < row.entries.size() && row.entries[i].col == col; ++i) sum += row.entries[i].value;
    if (sum != 0.0) row.entries[kept++] = {col, sum};
  }
  row.entries.resize(kept);
  return row;
}

void equilibrate(StandardForm& sf, bool enabled, std::vector<double>& row_scale,
                 std::vector<double>& col_scale) {
  row_scale.assign(sf.rows.size(), 1.0);
  col_scale.assign(sf.cost.size(), 1.0);
  if (!enabled) return;
  // Per column, the largest magnitude after row scaling.
  std::vector<double> col_biggest(sf.cost.size(), 0.0);
  for (std::size_t i = 0; i < sf.rows.size(); ++i) {
    StandardRow& row = sf.rows[i];
    double biggest = 0.0;
    for (const RowEntry& entry : row.entries) biggest = std::max(biggest, std::abs(entry.value));
    if (biggest > 0.0) row_scale[i] = 1.0 / biggest;
    row.rhs *= row_scale[i];
    for (RowEntry& entry : row.entries) {
      entry.value *= row_scale[i];
      col_biggest[entry.col] = std::max(col_biggest[entry.col], std::abs(entry.value));
    }
  }
  for (std::size_t j = 0; j < col_scale.size(); ++j) {
    if (col_biggest[j] > 0.0) col_scale[j] = 1.0 / col_biggest[j];
    sf.cost[j] *= col_scale[j];
    // Scaled column y' = y / col_scale, so a finite bound scales the same way.
    if (std::isfinite(sf.col_upper[j])) sf.col_upper[j] /= col_scale[j];
  }
  for (StandardRow& row : sf.rows) {
    for (RowEntry& entry : row.entries) entry.value *= col_scale[entry.col];
  }
}

}  // namespace oef::solver::internal

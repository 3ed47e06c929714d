// Conversion of an LpModel into computational standard form.
//
// Both simplex engines (the full-tableau reference in simplex.cpp and the
// revised-simplex LpSolver in lp_solver.cpp) operate on the same standard
// form:  min c'y  s.t.  A y (<=|>=|=) b,  0 <= y <= u,  with bookkeeping to
// undo the variable transformations afterwards:
//   * finite lower bounds are shifted away (x = y + lower),
//   * upper-bound-only variables are reflected (x = upper - y),
//   * two-sided bounds either become an extra <= row (the tableau reference,
//     native_upper_bounds = false) or a finite column upper bound in
//     col_upper handled natively by the bounded-variable simplex
//     (native_upper_bounds = true — no synthetic row, so the basis stays at
//     O(rows) instead of O(columns-with-bounds + rows)),
//   * free variables are split (x = y+ - y-).
// Rows keep the model's relation and sign; each engine negates the rows it
// loads to its own form (StandardRow::negate): the revised core every >= row
// to <=, the tableau every row to a non-negative rhs. Rows are sparse,
// column-sorted lists of nonzeros, built by one row builder for loaded and
// appended rows alike; only the tableau writes them out dense.
// This header is internal to src/solver; consumers use LpModel + a solver.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "solver/lp_model.h"

namespace oef::solver::internal {

/// Pricing tolerance of both engines: a reduced cost (or a fallback pivot
/// magnitude) within it counts as zero.
inline constexpr double kPricingTol = 1e-9;

/// Pivot budget of one solve over `rows` standard rows and `columns` columns
/// (structural, slack and artificial); past it the solve reports
/// kIterationLimit.
[[nodiscard]] constexpr std::size_t iteration_cap(std::size_t rows, std::size_t columns) {
  return 200 * (rows + columns) + 10000;
}

// How a standard-form column maps back onto a model variable:
// model_value[var] += sign * column_value  (+ a per-variable shift applied once).
struct ColumnRef {
  std::size_t var = 0;
  double sign = 1.0;
};

// Origin of a standard-form row, used to map duals back to model constraints.
struct RowRef {
  // Index of the model constraint, or npos for synthetic upper-bound rows.
  std::size_t constraint = SIZE_MAX;
  // -1 when an engine negated the row (StandardRow::negate).
  double sign = 1.0;
};

/// One nonzero of a standard-form row: the coefficient of column `col`.
struct RowEntry {
  std::size_t col = 0;
  double value = 0.0;
};

struct StandardRow {
  std::vector<RowEntry> entries;  // column-sorted, no exact zeros
  Relation relation = Relation::kLessEqual;
  double rhs = 0.0;
  RowRef ref;

  /// Multiplies the row by -1: entries and rhs change sign, <= and >= swap,
  /// and ref.sign records the flip for the dual.
  void negate();
};

struct StandardForm {
  std::vector<ColumnRef> columns;
  std::vector<std::vector<std::size_t>> cols_of_var;  // per model variable
  std::vector<double> var_shift;                      // per model variable
  std::vector<StandardRow> rows;
  std::vector<double> cost;       // per column, minimisation sense
  std::vector<double> col_upper;  // per column; kInf unless native bounds
  double sense_sign = 1.0;        // +1 if the model minimises, -1 if it maximises
};

/// `native_upper_bounds` keeps two-sided variable bounds as finite col_upper
/// entries for the bounded-variable simplex instead of emitting one synthetic
/// <= row per bounded variable.
[[nodiscard]] StandardForm build_standard_form(const LpModel& model,
                                               bool native_upper_bounds = false);

/// The one row builder: maps `constraint` onto the columns of `sf` (only
/// variables that existed when `sf` was built), variable shifts moved into
/// the rhs. A repeated variable's terms are summed in term order and exact
/// zeros dropped. The relation and sign are the constraint's; the engine
/// that loads or appends the row negates it to its own form.
[[nodiscard]] StandardRow build_standard_row(const StandardForm& sf,
                                             const Constraint& constraint,
                                             std::size_t constraint_index);

/// Max-equilibration: rows then columns are scaled by the reciprocal of their
/// largest absolute coefficient. Outputs the applied scales, all ones (and
/// `sf` untouched) when `enabled` is false. Finite col_upper entries are
/// rescaled to match (u' = u / col_scale).
void equilibrate(StandardForm& sf, bool enabled, std::vector<double>& row_scale,
                 std::vector<double>& col_scale);

}  // namespace oef::solver::internal

#include "solver/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "solver/standard_form.h"

namespace oef::solver {

using internal::RowEntry;
using internal::RowRef;
using internal::StandardForm;
using internal::StandardRow;
using internal::build_standard_form;
using internal::equilibrate;

std::string to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
  }
  return "?";
}

namespace {

// Full-tableau two-phase simplex with periodic basis refactorisation: the
// original standard-form data is retained so the tableau can be recomputed
// exactly from the current basis, which bounds the numerical drift of long
// pivot sequences.
class Tableau {
 public:
  Tableau(const StandardForm& sf, const SolverOptions& options, bool conservative)
      : options_(options), conservative_(conservative), m_(sf.rows.size()) {
    build(sf);
  }

  SolveStatus run() {
    // Phase 1 with verification loop: refactorisation can expose remaining
    // negative reduced costs, in which case pivoting resumes.
    for (int repair = 0;; ++repair) {
      const SolveStatus status = run_phase(/*phase1=*/true);
      if (status != SolveStatus::kOptimal) return status;
      if (repair >= kMaxRepairs || !refactor()) break;
      if (price(cost_row1_, /*allow_artificial=*/true, /*bland=*/false) == SIZE_MAX) break;
    }
    if (-cost_row1_[width_ - 1] > 1e-6) return SolveStatus::kInfeasible;
    drive_out_artificials();

    for (int repair = 0;; ++repair) {
      const SolveStatus status = run_phase(/*phase1=*/false);
      if (status != SolveStatus::kOptimal) return status;
      if (repair >= kMaxRepairs || !refactor()) break;
      if (price(cost_row2_, /*allow_artificial=*/false, /*bland=*/false) == SIZE_MAX) break;
    }

    // The problem solved so far carries the anti-degeneracy rhs perturbation;
    // restore the exact rhs and polish with a few more pivots if the optimal
    // basis shifted.
    if (perturbed_) {
      for (std::size_t i = 0; i < m_; ++i) original_rows_[i][width_ - 1] = exact_rhs_[i];
      perturbed_ = false;
      if (refactor()) {
        for (int repair = 0;; ++repair) {
          if (price(cost_row2_, /*allow_artificial=*/false, /*bland=*/false) == SIZE_MAX) break;
          const SolveStatus status = run_phase(/*phase1=*/false);
          if (status != SolveStatus::kOptimal) return status;
          if (repair >= kMaxRepairs || !refactor()) break;
        }
      }
    }
    return SolveStatus::kOptimal;
  }

  [[nodiscard]] std::vector<double> column_values() const {
    std::vector<double> values(total_cols_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] < total_cols_) values[basis_[i]] = std::max(0.0, rows_[i][width_ - 1]);
    }
    return values;
  }

  // Shadow price of row i for the internal minimisation problem: the initial
  // unit column of row i has phase-2 cost 0, so its reduced cost equals -y_i.
  [[nodiscard]] double row_dual(std::size_t i) const { return -cost_row2_[unit_col_[i]]; }

  [[nodiscard]] std::size_t iterations() const { return iterations_; }

 private:
  static constexpr int kMaxRepairs = 4;
  static constexpr double kPivotTol = 1e-7;

  void build(const StandardForm& sf) {
    const std::size_t n = sf.cost.size();
    std::size_t num_slack = 0;
    std::size_t num_artificial = 0;
    for (const StandardRow& row : sf.rows) {
      if (row.relation != Relation::kEqual) ++num_slack;
      if (row.relation != Relation::kLessEqual) ++num_artificial;
    }
    total_cols_ = n + num_slack + num_artificial;
    width_ = total_cols_ + 1;
    artificial_start_ = n + num_slack;

    rows_.assign(m_, std::vector<double>(width_, 0.0));
    basis_.assign(m_, 0);
    unit_col_.assign(m_, 0);

    std::size_t next_slack = n;
    std::size_t next_artificial = artificial_start_;
    for (std::size_t i = 0; i < m_; ++i) {
      for (const RowEntry& entry : sf.rows[i].entries) rows_[i][entry.col] = entry.value;
      rows_[i][width_ - 1] = sf.rows[i].rhs;
      switch (sf.rows[i].relation) {
        case Relation::kLessEqual:
          rows_[i][next_slack] = 1.0;
          basis_[i] = next_slack;
          unit_col_[i] = next_slack;
          ++next_slack;
          break;
        case Relation::kGreaterEqual:
          rows_[i][next_slack] = -1.0;
          ++next_slack;
          rows_[i][next_artificial] = 1.0;
          basis_[i] = next_artificial;
          unit_col_[i] = next_artificial;
          ++next_artificial;
          break;
        case Relation::kEqual:
          rows_[i][next_artificial] = 1.0;
          basis_[i] = next_artificial;
          unit_col_[i] = next_artificial;
          ++next_artificial;
          break;
      }
    }

    // Anti-degeneracy: LPs in this repository carry many rows with rhs 0
    // (envy-freeness, efficiency-equality), which makes the initial vertex
    // extremely degenerate and invites numerical cycling. A deterministic,
    // strictly positive rhs perturbation breaks the ties; the exact rhs is
    // restored (and the optimum polished) at the end of run(). Only <= rows
    // are perturbed — loosening them strictly enlarges the feasible region,
    // so a feasible problem can never be driven infeasible (tightening
    // zero-rhs envy rows between identical users would be). The conservative
    // retry solves unperturbed with Bland's rule throughout.
    exact_rhs_.resize(m_);
    for (std::size_t i = 0; i < m_; ++i) exact_rhs_[i] = rows_[i][width_ - 1];
    if (!conservative_) {
      std::uint64_t mix = 0x9e3779b97f4a7c15ULL;
      for (std::size_t i = 0; i < m_; ++i) {
        mix ^= mix << 13;
        mix ^= mix >> 7;
        mix ^= mix << 17;
        // <= rows are relaxed (always safe). Equality rows are shifted by the
        // same tiny amount — that can in principle make a feasible model
        // infeasible, which the solve() driver detects and answers by
        // re-solving unperturbed. >= rows (b > 0 after normalisation) start
        // non-degenerate and stay exact.
        if (sf.rows[i].relation == Relation::kGreaterEqual) continue;
        const double frac =
            0.5 + 0.5 * static_cast<double>(mix >> 11) * 0x1.0p-53;  // in (0.5, 1)
        rows_[i][width_ - 1] += 1e-7 * (1.0 + rows_[i][width_ - 1]) * frac;
      }
      perturbed_ = true;
    }

    original_rows_ = rows_;  // retained for refactorisation

    // Phase costs per column: phase 1 charges artificials, phase 2 charges
    // the structural objective.
    phase1_cost_.assign(total_cols_, 0.0);
    for (std::size_t j = artificial_start_; j < total_cols_; ++j) phase1_cost_[j] = 1.0;
    phase2_cost_.assign(total_cols_, 0.0);
    std::copy(sf.cost.begin(), sf.cost.end(), phase2_cost_.begin());

    // Initial reduced-cost rows: initial basis is slacks (cost 0 in both
    // phases) and artificials (cost 1 in phase 1 only).
    cost_row2_.assign(width_, 0.0);
    std::copy(phase2_cost_.begin(), phase2_cost_.end(), cost_row2_.begin());
    cost_row1_.assign(width_, 0.0);
    std::copy(phase1_cost_.begin(), phase1_cost_.end(), cost_row1_.begin());
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] >= artificial_start_) {
        for (std::size_t j = 0; j < width_; ++j) cost_row1_[j] -= rows_[i][j];
      }
    }

  }

  void pivot(std::size_t pivot_row, std::size_t pivot_col) {
    std::vector<double>& prow = rows_[pivot_row];
    const double inv = 1.0 / prow[pivot_col];
    for (double& a : prow) a *= inv;
    prow[pivot_col] = 1.0;  // clean up roundoff on the pivot itself

    const auto eliminate = [&](std::vector<double>& row) {
      const double factor = row[pivot_col];
      if (factor == 0.0) return;
      for (std::size_t j = 0; j < width_; ++j) row[j] -= factor * prow[j];
      row[pivot_col] = 0.0;
    };
    for (std::size_t i = 0; i < m_; ++i) {
      if (i != pivot_row) eliminate(rows_[i]);
    }
    eliminate(cost_row1_);
    eliminate(cost_row2_);
    basis_[pivot_row] = pivot_col;
  }

  // Entering column, or SIZE_MAX when optimal for the given cost row.
  [[nodiscard]] std::size_t price(const std::vector<double>& cost_row, bool allow_artificial,
                                  bool bland) const {
    constexpr double tol = internal::kPricingTol;
    const std::size_t limit = allow_artificial ? total_cols_ : artificial_start_;
    if (bland) {
      for (std::size_t j = 0; j < limit; ++j) {
        if (cost_row[j] < -tol) return j;
      }
      return SIZE_MAX;
    }
    std::size_t best = SIZE_MAX;
    double best_value = -tol;
    for (std::size_t j = 0; j < limit; ++j) {
      if (cost_row[j] < best_value) {
        best_value = cost_row[j];
        best = j;
      }
    }
    return best;
  }

  // Leaving row, or SIZE_MAX when the column is unbounded. Normal mode breaks
  // near-ties of the minimum ratio by the largest pivot magnitude (numerical
  // stability); Bland mode breaks exact ties by smallest basis index
  // (guaranteed termination).
  [[nodiscard]] std::size_t ratio_test(std::size_t col, bool bland) const {
    std::size_t best_row = SIZE_MAX;
    double best_ratio = std::numeric_limits<double>::infinity();
    double best_pivot = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      const double a = rows_[i][col];
      if (a <= kPivotTol) continue;
      const double ratio = std::max(0.0, rows_[i][width_ - 1]) / a;
      const double tie_band = 1e-9 * (1.0 + ratio);
      if (best_row == SIZE_MAX || ratio < best_ratio - tie_band) {
        best_ratio = ratio;
        best_row = i;
        best_pivot = a;
      } else if (ratio < best_ratio + tie_band) {
        if (bland ? basis_[i] < basis_[best_row] : a > best_pivot) {
          best_ratio = std::min(best_ratio, ratio);
          best_row = i;
          best_pivot = a;
        }
      }
    }
    if (best_row != SIZE_MAX) return best_row;
    // No acceptable pivot above the stability threshold; fall back to the
    // loose tolerance before declaring the column unbounded.
    for (std::size_t i = 0; i < m_; ++i) {
      const double a = rows_[i][col];
      if (a <= internal::kPricingTol) continue;
      const double ratio = std::max(0.0, rows_[i][width_ - 1]) / a;
      if (ratio < best_ratio) {
        best_ratio = ratio;
        best_row = i;
      }
    }
    return best_row;
  }

  SolveStatus run_phase(bool phase1) {
    std::vector<double>& cost_row = phase1 ? cost_row1_ : cost_row2_;
    std::size_t stall = 0;
    bool bland = conservative_;
    double last_objective = -cost_row[width_ - 1];
    while (true) {
      if (iterations_ >= internal::iteration_cap(m_, total_cols_)) {
        return SolveStatus::kIterationLimit;
      }
      const std::size_t col = price(cost_row, /*allow_artificial=*/phase1, bland);
      if (col == SIZE_MAX) return SolveStatus::kOptimal;
      const std::size_t row = ratio_test(col, bland);
      if (row == SIZE_MAX) {
        // Phase 1 minimises a sum of non-negative variables — never unbounded.
        return phase1 ? SolveStatus::kInfeasible : SolveStatus::kUnbounded;
      }
      pivot(row, col);
      ++iterations_;
      const double objective = -cost_row[width_ - 1];
      if (objective >= last_objective - internal::kPricingTol) {
        if (++stall >= options_.stall_limit) bland = true;
      } else {
        stall = 0;
        bland = conservative_;
      }
      last_objective = objective;
    }
  }

  // After a feasible phase 1, pivot artificials out of the basis so phase 2
  // can bar their columns. Rows where no structural pivot exists are
  // redundant; their artificial stays basic at value ~0.
  void drive_out_artificials() {
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] < artificial_start_) continue;
      std::size_t col = SIZE_MAX;
      double best = 1e-8;
      for (std::size_t j = 0; j < artificial_start_; ++j) {
        if (std::abs(rows_[i][j]) > best) {
          best = std::abs(rows_[i][j]);
          col = j;
        }
      }
      if (col != SIZE_MAX) pivot(i, col);
    }
  }

  // Recomputes the tableau exactly from the original data and the current
  // basis: B^-1 via Gauss-Jordan, then rows = B^-1 * original and reduced
  // costs d = c - c_B B^-1 A. Returns false when the basis matrix is
  // numerically singular (tableau left untouched).
  bool refactor() {
    // Assemble [B | I].
    std::vector<std::vector<double>> binv(m_, std::vector<double>(2 * m_, 0.0));
    for (std::size_t i = 0; i < m_; ++i) {
      for (std::size_t r = 0; r < m_; ++r) binv[r][i] = original_rows_[r][basis_[i]];
      binv[i][m_ + i] = 1.0;
    }
    // Gauss-Jordan with partial pivoting.
    for (std::size_t col = 0; col < m_; ++col) {
      std::size_t pivot = col;
      for (std::size_t r = col; r < m_; ++r) {
        if (std::abs(binv[r][col]) > std::abs(binv[pivot][col])) pivot = r;
      }
      if (std::abs(binv[pivot][col]) < 1e-12) return false;
      std::swap(binv[col], binv[pivot]);
      const double inv = 1.0 / binv[col][col];
      for (double& v : binv[col]) v *= inv;
      for (std::size_t r = 0; r < m_; ++r) {
        if (r == col) continue;
        const double f = binv[r][col];
        if (f == 0.0) continue;
        for (std::size_t c = col; c < 2 * m_; ++c) binv[r][c] -= f * binv[col][c];
      }
    }
    // rows_ = B^-1 * original_rows_ (only the inverse part of binv is used).
    for (std::size_t i = 0; i < m_; ++i) {
      std::vector<double>& out = rows_[i];
      std::fill(out.begin(), out.end(), 0.0);
      for (std::size_t r = 0; r < m_; ++r) {
        const double f = binv[i][m_ + r];
        if (f == 0.0) continue;
        const std::vector<double>& src = original_rows_[r];
        for (std::size_t j = 0; j < width_; ++j) out[j] += f * src[j];
      }
    }
    // Exact reduced costs for both phases.
    recompute_cost_row(phase1_cost_, cost_row1_);
    recompute_cost_row(phase2_cost_, cost_row2_);
    return true;
  }

  void recompute_cost_row(const std::vector<double>& cost, std::vector<double>& out) {
    out.assign(width_, 0.0);
    std::copy(cost.begin(), cost.end(), out.begin());
    for (std::size_t i = 0; i < m_; ++i) {
      const double cb = cost[basis_[i]];
      if (cb == 0.0) continue;
      for (std::size_t j = 0; j < width_; ++j) out[j] -= cb * rows_[i][j];
    }
    // Basic columns have exact zero reduced cost by definition.
    for (std::size_t i = 0; i < m_; ++i) out[basis_[i]] = 0.0;
  }

  const SolverOptions& options_;
  bool conservative_ = false;
  std::size_t m_ = 0;
  std::size_t total_cols_ = 0;
  std::size_t width_ = 0;
  std::size_t artificial_start_ = 0;
  std::size_t iterations_ = 0;
  bool perturbed_ = false;
  std::vector<double> exact_rhs_;
  std::vector<std::vector<double>> rows_;
  std::vector<std::vector<double>> original_rows_;
  std::vector<double> phase1_cost_;
  std::vector<double> phase2_cost_;
  std::vector<double> cost_row1_;
  std::vector<double> cost_row2_;
  std::vector<std::size_t> basis_;
  std::vector<std::size_t> unit_col_;
};

}  // namespace

SimplexSolver::SimplexSolver(SolverOptions options) : options_(options) {}

LpSolution SimplexSolver::solve(const LpModel& model) const {
  LpSolution solution;

  for (int attempt = 0; attempt < 2; ++attempt) {
    StandardForm sf = build_standard_form(model);
    // The tableau starts every row on a slack or an artificial, which needs
    // a non-negative rhs; zero-rhs >= rows flip too, so that they start on a
    // slack and the perturbation can relax them.
    for (StandardRow& row : sf.rows) {
      if (row.rhs < 0.0 || (row.rhs == 0.0 && row.relation == Relation::kGreaterEqual)) {
        row.negate();
      }
    }
    std::vector<double> row_scale;
    std::vector<double> col_scale;
    equilibrate(sf, options_.enable_scaling, row_scale, col_scale);

    // Second attempt uses Bland's rule throughout (slow but maximally
    // cautious) when the first produced an infeasible "optimum".
    Tableau tableau(sf, options_, /*conservative=*/attempt == 1);
    solution.status = tableau.run();
    solution.iterations += tableau.iterations();
    if (solution.status == SolveStatus::kInfeasible && attempt == 0) {
      // The rhs perturbation of equality rows can manufacture infeasibility;
      // only the exact (conservative) solve may declare it.
      continue;
    }
    if (solution.status != SolveStatus::kOptimal) return solution;

    // Undo scaling and variable transformations.
    const std::vector<double> scaled_cols = tableau.column_values();
    solution.values.assign(model.num_variables(), 0.0);
    for (std::size_t j = 0; j < sf.columns.size(); ++j) {
      const double y = scaled_cols[j] * col_scale[j];
      solution.values[sf.columns[j].var] += sf.columns[j].sign * y;
    }
    for (std::size_t v = 0; v < model.num_variables(); ++v) {
      solution.values[v] += sf.var_shift[v];
    }
    solution.objective = model.objective_value(solution.values);

    solution.duals.assign(model.num_constraints(), 0.0);
    for (std::size_t i = 0; i < sf.rows.size(); ++i) {
      const RowRef& ref = sf.rows[i].ref;
      if (ref.constraint == SIZE_MAX) continue;  // synthetic upper-bound row
      const double y_min = tableau.row_dual(i) * row_scale[i];
      solution.duals[ref.constraint] = sf.sense_sign * ref.sign * y_min;
    }

    if (model.is_feasible(solution.values, 1e-6)) break;
  }
  return solution;
}

}  // namespace oef::solver

// Simplex basis: the set of basic columns plus a sparse LU factorisation of
// the basis matrix B, kept current across pivots by Forrest–Tomlin updates.
//
// The revised simplex in lp_solver.cpp keeps the constraint matrix A fixed
// and represents the current vertex entirely through this object: solves with
// B^-1 (ftran/btran), per-pivot updates and refactorisation to bound
// numerical drift. Changing the row set changes only the basic set: an
// appended row's slack joins it and the solver refactorises before the next
// solve; for deleted rows the solver installs the renumbered survivors with
// set_basic() and refactorises.
//
// The factorisation is a left-looking Gilbert–Peierls elimination with
// threshold partial pivoting and a static Markowitz-style sparsest-row
// tie-break. A pivot updates the factors in place (J. Forrest and J. Tomlin,
// 1972): the entering column's spike L^-1 a_q replaces the leaving column of
// U, that column moves to the end of U's triangular order, and one sparse
// row eta eliminates the row it left behind. L never changes between
// refactorisations. ftran applies L, the row etas in order, then U in its
// kept order; btran runs the reverse. The solves skip zero intermediates, so
// the per-pivot cost is O(nnz) rather than O(m^2). Refactorisation fires at
// an update cap, on factor growth, or when an update's new diagonal
// disagrees with the ftran pivot. This is what carries the cooperative
// sweep to n ~ 1000 (m ~ 16k envy rows).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "solver/sparse_matrix.h"

namespace oef::solver {

class Basis {
 public:
  /// Refactorisation policy (see refactor_due): at most kMaxUpdates
  /// Forrest–Tomlin updates, and factor nonzeros (L, U and row etas) at most
  /// kMaxFillGrowth x the fresh factor's.
  static constexpr std::size_t kMaxUpdates = 150;
  static constexpr double kMaxFillGrowth = 2.0;

  /// Number of rows (== number of basic columns).
  [[nodiscard]] std::size_t size() const { return basic_.size(); }

  /// Column index basic in each row position.
  [[nodiscard]] const std::vector<std::size_t>& basic() const { return basic_; }

  /// Installs a basic set and an identity factorisation; valid as-is only
  /// when the basis matrix actually is the identity (the all-slack /
  /// all-artificial start), otherwise call refactor() before any solve.
  /// Resets the update count.
  void set_basic(std::vector<std::size_t> basic);

  /// Factorises the basis matrix from scratch against `columns` (the full
  /// constraint matrix; the basic set selects which columns form B). Returns
  /// false when B is numerically singular; deficiency() then names the
  /// positions to repair and the previous factorisation is unusable.
  [[nodiscard]] bool refactor(const SparseMatrix& columns);

  /// True when the factor is due for a refactorisation: it holds kMaxUpdates
  /// updates, its nonzeros exceed kMaxFillGrowth x the fresh factor's, or an
  /// update's new diagonal disagreed with its ftran pivot (drift).
  [[nodiscard]] bool refactor_due() const;

  /// w = B^-1 a (a indexed by constraint row, w by basis position).
  [[nodiscard]] std::vector<double> ftran(const std::vector<double>& a) const;

  /// w = B^-1 a for a sparse a (entries of one constraint-matrix column).
  [[nodiscard]] std::vector<double> ftran(const std::vector<SparseEntry>& a) const;

  /// y^T = c_B^T B^-1 (cb indexed by basis position, y by constraint row).
  [[nodiscard]] std::vector<double> btran(const std::vector<double>& cb) const;

  /// Row `pos` of B^-1 (== e_pos^T B^-1), used for the dual-simplex pivot row
  /// and the devex reference updates.
  [[nodiscard]] std::vector<double> btran_unit(std::size_t pos) const;

  /// Replaces the basic column of position `leave_row` with `enter_col`,
  /// whose constraint-matrix entries are `column`, by one Forrest–Tomlin
  /// update. `ftran_pivot` is entry `leave_row` of ftran(column); the update
  /// checks its new U diagonal against it and makes refactor_due() true when
  /// they disagree.
  void pivot(std::size_t leave_row, std::size_t enter_col,
             const std::vector<SparseEntry>& column, double ftran_pivot);

  /// Extends the basic set for one appended constraint row whose slack column
  /// (index `slack_col`) becomes basic in the new row. The factorisation is
  /// left one row short: refactor() against the extended matrix before the
  /// next solve.
  void append_row(std::size_t slack_col) { basic_.push_back(slack_col); }

  [[nodiscard]] std::size_t pivots_since_refactor() const { return pivots_since_refactor_; }

  /// After a failed refactor(): the (basis position, constraint row) pairs
  /// the factorisation could not pivot. Accumulated update drift can let the
  /// simplex adopt an entering column the true basis does not admit; the
  /// solver repairs such deficiencies by patching each listed position with
  /// a unit column of the listed row and refactorising again, instead of
  /// abandoning the solve.
  [[nodiscard]] const std::vector<std::pair<std::size_t, std::size_t>>& deficiency()
      const {
    return deficiency_;
  }

  /// Fault injection: scales the U diagonal that the newest update set by
  /// `factor`, emulating accumulated update drift. Returns false (nothing
  /// corrupted) when no update happened since the last factorisation.
  bool corrupt_last_eta(double factor);

 private:
  struct Entry {
    std::size_t idx = 0;
    double value = 0.0;
  };
  /// One Forrest–Tomlin row eta, in factor space: z_row −= Σ value · z_idx.
  struct RowEta {
    std::size_t row = 0;
    std::vector<Entry> entries;
  };

  void install_identity();
  /// Resets the update state (order, row etas, counters) over fresh factors.
  void reset_updates();
  /// Fails the check when append_row() grew the basic set since the last
  /// factorisation (solving then would read past the factor).
  void check_factored() const;
  /// L, then the row etas in order: z <- R_k..R_1 L^-1 z, in factor space.
  void lower_solve(std::vector<double>& z) const;
  /// L solve, row etas and U solve; input in factor space, output in basis
  /// position space.
  [[nodiscard]] std::vector<double> ftran_factor_space(std::vector<double> z) const;
  /// U^T solve, row-eta transposes in reverse order, then L^T; input in
  /// basis position space, output in constraint-row space.
  [[nodiscard]] std::vector<double> btran_position_space(std::vector<double> c) const;

  std::vector<std::size_t> basic_;
  std::size_t pivots_since_refactor_ = 0;

  // LU factors in factor space: position k of the factorisation eliminates
  // original constraint row row_of_[k] using basis position col_order_[k],
  // and an update keeps that pairing (the entering column takes the leaving
  // column's factor index). lcols_[k] holds the below-diagonal column k of L
  // (unit diagonal implied), ucols_[k] the off-diagonal column k of U,
  // udiag_[k] its diagonal; lrows_/urows_ are the row-major mirrors used by
  // the transposed solves. U is triangular in order_, the factor indices in
  // elimination order: an update marks its index's slot kMoved and appends
  // it, and slot_of_ maps each index to its live slot.
  std::vector<std::vector<Entry>> lcols_, lrows_, ucols_, urows_;
  std::vector<double> udiag_;
  std::vector<std::size_t> row_of_;         // factor index -> original row
  std::vector<std::size_t> factor_of_row_;  // original row -> factor index
  std::vector<std::size_t> col_order_;      // factor index -> basis position
  std::vector<std::size_t> factor_of_pos_;  // basis position -> factor index
  std::vector<std::size_t> order_;
  std::vector<std::size_t> slot_of_;
  std::vector<RowEta> row_etas_;
  std::vector<std::pair<std::size_t, std::size_t>> deficiency_;
  // Nonzeros of L, U (diagonal included) and the row etas, now and at the
  // last factorisation (the growth trigger).
  std::size_t factor_nnz_ = 0;
  std::size_t fresh_nnz_ = 0;
  // Factor index of the newest update (SIZE_MAX: none since the factor).
  std::size_t last_update_ = SIZE_MAX;
  bool drifted_ = false;
};

}  // namespace oef::solver

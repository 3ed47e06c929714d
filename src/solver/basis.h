// Simplex basis: the set of basic columns plus a sparse LU factorisation of
// the basis matrix B with a product-form eta file.
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
// tie-break; each pivot appends one eta. ftran/btran are sparse triangular +
// eta solves that skip zero intermediates, so the per-pivot cost is O(nnz)
// rather than O(m^2). Refactorisation is triggered by eta-file length / fill
// growth rather than a fixed pivot count. This is what carries the
// cooperative sweep to n ~ 1000 (m ~ 16k envy rows).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "solver/sparse_matrix.h"

namespace oef::solver {

class Basis {
 public:
  /// Refactorisation policy (see refactor_due): the eta file may hold at most
  /// kMaxEtas etas, and its nonzeros at most kMaxFillGrowth x (LU nonzeros + m).
  static constexpr std::size_t kMaxEtas = 64;
  static constexpr double kMaxFillGrowth = 2.0;

  /// Number of rows (== number of basic columns).
  [[nodiscard]] std::size_t size() const { return basic_.size(); }

  /// Column index basic in each row position.
  [[nodiscard]] const std::vector<std::size_t>& basic() const { return basic_; }

  /// Installs a basic set and an identity factorisation; valid as-is only
  /// when the basis matrix actually is the identity (the all-slack /
  /// all-artificial start), otherwise call refactor() before any solve.
  /// Resets the pivot counter and the eta file.
  void set_basic(std::vector<std::size_t> basic);

  /// Factorises the basis matrix from scratch against `columns` (the full
  /// constraint matrix; the basic set selects which columns form B). Returns
  /// false when B is numerically singular; deficiency() then names the
  /// positions to repair and the previous factorisation is unusable.
  [[nodiscard]] bool refactor(const SparseMatrix& columns);

  /// True when the eta file is due for a refactorisation: it holds kMaxEtas
  /// etas (each is an extra pass in every solve), or its nonzeros exceed
  /// kMaxFillGrowth x (LU nonzeros + m) (the sparse-solve advantage erodes).
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

  /// Applies the pivot (leave_row, enter_col) by appending one eta to the
  /// product-form file. `ftran_col` must be B^-1 A_enter as returned by
  /// ftran().
  void pivot(std::size_t leave_row, std::size_t enter_col,
             const std::vector<double>& ftran_col);

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

  /// Fault injection: scales the newest eta's pivot element by `factor`,
  /// emulating accumulated update drift. Returns false (nothing corrupted)
  /// when the eta file is empty.
  bool corrupt_last_eta(double factor);

 private:
  struct Entry {
    std::size_t idx = 0;
    double value = 0.0;
  };
  /// One product-form update: B_new = B_old * E with column `pos` of E equal
  /// to the pivot's ftran column (stored split into the pivot element and the
  /// off-pivot nonzeros, basis-position indexed).
  struct Eta {
    std::size_t pos = 0;
    double pivot = 1.0;
    std::vector<Entry> others;
  };

  void install_identity();
  /// Fails the check when append_row() grew the basic set since the last
  /// factorisation (solving then would read past the factor).
  void check_factored() const;
  /// L then U solve plus the eta file, input/output in factor/position space.
  [[nodiscard]] std::vector<double> ftran_factor_space(std::vector<double> z) const;
  /// Eta transposes (reverse order) then U^T, L^T solves; input in basis
  /// position space, output in constraint-row space.
  [[nodiscard]] std::vector<double> btran_position_space(std::vector<double> c) const;

  std::vector<std::size_t> basic_;
  std::size_t pivots_since_refactor_ = 0;

  // LU factors in factor space: position k of the factorisation eliminates
  // original constraint row row_of_[k] using basis position col_order_[k].
  // lcols_[k] holds the below-diagonal column k of L (unit diagonal implied),
  // ucols_[k] the above-diagonal column k of U, udiag_[k] its diagonal;
  // lrows_/urows_ are the row-major mirrors used by the transposed solves.
  std::vector<std::vector<Entry>> lcols_, lrows_, ucols_, urows_;
  std::vector<double> udiag_;
  std::vector<std::size_t> row_of_;         // factor index -> original row
  std::vector<std::size_t> factor_of_row_;  // original row -> factor index
  std::vector<std::size_t> col_order_;      // factor index -> basis position
  std::vector<Eta> etas_;
  std::vector<std::pair<std::size_t, std::size_t>> deficiency_;
  std::size_t eta_nnz_ = 0;
  std::size_t lu_nnz_ = 0;
};

}  // namespace oef::solver

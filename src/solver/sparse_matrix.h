// Column-major sparse matrix for the revised simplex.
//
// The LP constraint matrices in this repository are column-sparse: an envy
// row touches 2k structural columns out of O(n·k), and every slack column is
// a single unit entry. The simplex pricing passes (reduced costs d = c - yᵀA,
// the dual pivot row α = ρᵀA, devex weight updates) iterate columns, so a
// CSC-style layout — one entry vector per column — turns each pass from
// O(m · num_cols) into O(nnz). Columns and rows are both appendable, which is
// what the incremental-resolve path needs: add_rows() appends one constraint
// row (touching only its nonzero columns) plus one fresh slack column.
//
// This structure covers the constraint matrix A only; B^-1 is represented by
// the sparse LU + eta file in basis.h.
#pragma once

#include <cstddef>
#include <vector>

namespace oef::solver {

/// One nonzero of a sparse column: A[row, col] = value.
struct SparseEntry {
  std::size_t row = 0;
  double value = 0.0;
};

class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Resets to an empty rows x 0 matrix.
  void reset(std::size_t rows);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return columns_.size(); }

  /// Total stored nonzeros.
  [[nodiscard]] std::size_t nonzeros() const;

  /// Appends an empty column and returns its index.
  std::size_t add_column();

  /// Appends one nonzero to column `col`. Zero values are skipped. Entries
  /// within a column are kept in insertion order; the solver only appends
  /// strictly increasing row indices, so columns stay row-sorted.
  void add_entry(std::size_t col, std::size_t row, double value);

  /// Grows the row dimension (new rows start empty).
  void set_rows(std::size_t rows);

  [[nodiscard]] const std::vector<SparseEntry>& column(std::size_t col) const {
    return columns_[col];
  }

  /// Dot product of column `col` with a dense vector of size rows().
  [[nodiscard]] double dot_column(std::size_t col, const std::vector<double>& x) const;

  /// out += factor * column(col) for a dense vector of size rows().
  void axpy_column(std::size_t col, double factor, std::vector<double>& out) const;

 private:
  std::size_t rows_ = 0;
  std::vector<std::vector<SparseEntry>> columns_;
};

}  // namespace oef::solver

// Sparse constraint matrix for the revised simplex: column-major storage plus
// a flat row-major copy.
//
// The LP constraint matrices in this repository are column-sparse: an envy
// row touches 2k structural columns out of O(n·k), and every slack column is
// a single unit entry. The columns (one entry vector per column) feed the
// factorisation and the entering column's ftran. The row-major copy (one
// offsets array plus one entries array) feeds the products vᵀA — the simplex
// pivot row α = ρᵀA and the reduced-cost recompute d = c − yᵀA — which scatter
// over v's nonzero rows only, so a sparse ρ costs the nonzeros of its rows
// rather than a pass over every column. Columns and rows are both
// appendable, which is what the incremental-resolve path needs: add_rows()
// appends one constraint row (touching only its nonzero columns) plus one
// fresh slack column.
//
// This structure covers the constraint matrix A only; B^-1 is represented by
// the sparse LU with Forrest–Tomlin updates in basis.h.
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

  /// Resets to an empty rows x 0 matrix (without a row-major copy).
  void reset(std::size_t rows);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return columns_.size(); }

  /// Total stored nonzeros.
  [[nodiscard]] std::size_t nonzeros() const;

  /// Appends an empty column and returns its index.
  std::size_t add_column();

  /// Appends one nonzero to column `col`. Zero values are skipped. Entries
  /// within a column are kept in insertion order; the solver only appends
  /// strictly increasing row indices, so columns stay row-sorted. While the
  /// row-major copy exists, an entry in the last row extends it in place and
  /// an entry anywhere else drops it (index_rows() rebuilds it).
  void add_entry(std::size_t col, std::size_t row, double value);

  /// Grows the row dimension (new rows start empty).
  void set_rows(std::size_t rows);

  [[nodiscard]] const std::vector<SparseEntry>& column(std::size_t col) const {
    return columns_[col];
  }

  /// Builds the row-major copy from the columns in one O(nnz) pass. Each
  /// row's entries come out column-sorted.
  void index_rows();

  /// Dot product of column `col` with a dense vector of size rows().
  [[nodiscard]] double dot_column(std::size_t col, const std::vector<double>& x) const;

  /// out = vᵀA (size cols()) for a dense v of size rows(), formed row-wise
  /// from the row-major copy: zero rows of v are skipped and every other row
  /// scatters its nonzeros. Each column's sum accumulates in row order, so
  /// out[j] is bit-identical to dot_column(j, v) on row-sorted columns.
  /// Requires index_rows() since the last entry outside the last row.
  void transpose_product(const std::vector<double>& v, std::vector<double>& out) const;

  /// out += factor * column(col) for a dense vector of size rows().
  void axpy_column(std::size_t col, double factor, std::vector<double>& out) const;

 private:
  /// One nonzero of the row-major copy: A[row, col] = value.
  struct RowEntry {
    std::size_t col = 0;
    double value = 0.0;
  };

  std::size_t rows_ = 0;
  std::vector<std::vector<SparseEntry>> columns_;
  // Row-major copy: row i's entries are row_entries_[row_start_[i] ..
  // row_start_[i + 1]). Empty row_start_ means there is no copy.
  std::vector<std::size_t> row_start_;
  std::vector<RowEntry> row_entries_;
};

}  // namespace oef::solver

#include "solver/sparse_matrix.h"

#include "common/check.h"

namespace oef::solver {

void SparseMatrix::reset(std::size_t rows) {
  rows_ = rows;
  columns_.clear();
  row_start_.clear();
  row_entries_.clear();
}

std::size_t SparseMatrix::nonzeros() const {
  std::size_t total = 0;
  for (const auto& column : columns_) total += column.size();
  return total;
}

std::size_t SparseMatrix::add_column() {
  columns_.emplace_back();
  return columns_.size() - 1;
}

void SparseMatrix::add_entry(std::size_t col, std::size_t row, double value) {
  OEF_CHECK(col < columns_.size());
  OEF_CHECK(row < rows_);
  if (value == 0.0) return;
  columns_[col].push_back({row, value});
  if (row_start_.empty()) return;
  if (row + 1 == rows_) {
    // The last row's entries end the flat array, so it grows in place.
    row_entries_.push_back({col, value});
    ++row_start_.back();
  } else {
    row_start_.clear();
    row_entries_.clear();
  }
}

void SparseMatrix::set_rows(std::size_t rows) {
  OEF_CHECK(rows >= rows_);
  rows_ = rows;
  if (!row_start_.empty()) row_start_.resize(rows + 1, row_start_.back());
}

void SparseMatrix::index_rows() {
  // Counting sort by row: columns are visited in index order, so every row's
  // entries come out column-sorted.
  row_start_.assign(rows_ + 1, 0);
  for (const auto& column : columns_) {
    for (const SparseEntry& entry : column) ++row_start_[entry.row + 1];
  }
  for (std::size_t i = 0; i < rows_; ++i) row_start_[i + 1] += row_start_[i];
  row_entries_.resize(row_start_[rows_]);
  std::vector<std::size_t> next(row_start_.begin(), row_start_.end() - 1);
  for (std::size_t j = 0; j < columns_.size(); ++j) {
    for (const SparseEntry& entry : columns_[j]) {
      row_entries_[next[entry.row]++] = {j, entry.value};
    }
  }
}

double SparseMatrix::dot_column(std::size_t col, const std::vector<double>& x) const {
  double acc = 0.0;
  for (const SparseEntry& entry : columns_[col]) acc += entry.value * x[entry.row];
  return acc;
}

void SparseMatrix::transpose_product(const std::vector<double>& v,
                                     std::vector<double>& out) const {
  OEF_CHECK(!row_start_.empty());
  out.assign(columns_.size(), 0.0);
  // A zero v[i] would add ±0 to each sum it touches, which leaves every sum
  // unchanged, so skipping the row keeps the result bit-identical.
  for (std::size_t i = 0; i < rows_; ++i) {
    const double vi = v[i];
    if (vi == 0.0) continue;
    for (std::size_t k = row_start_[i]; k < row_start_[i + 1]; ++k) {
      out[row_entries_[k].col] += row_entries_[k].value * vi;
    }
  }
}

void SparseMatrix::axpy_column(std::size_t col, double factor,
                               std::vector<double>& out) const {
  if (factor == 0.0) return;
  for (const SparseEntry& entry : columns_[col]) out[entry.row] += factor * entry.value;
}

}  // namespace oef::solver

#include "solver/basis.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace oef::solver {

namespace {
/// Pivot acceptance threshold of the refactorisation: a basis whose best
/// remaining pivot candidate is below this is reported singular.
constexpr double kSingularTol = 1e-12;
/// Threshold partial pivoting: rows within this factor of the largest
/// eligible magnitude compete on sparsity (static Markowitz tie-break).
constexpr double kPivotThreshold = 0.1;
/// A Forrest–Tomlin update's new U diagonal must equal the old one times the
/// ftran pivot to this relative tolerance; a larger gap is drift.
constexpr double kUpdateTol = 1e-8;
/// order_ entry of a slot whose factor index an update moved to the end.
constexpr std::size_t kMoved = SIZE_MAX;

/// Removes the entry of index `idx` from `entries`. Their order is free:
/// every solve applies one list's entries to distinct indices.
template <typename EntryT>
void erase_index(std::vector<EntryT>& entries, std::size_t idx) {
  for (EntryT& e : entries) {
    if (e.idx == idx) {
      e = entries.back();
      entries.pop_back();
      return;
    }
  }
}
}  // namespace

// Refactorisation is a left-looking Gilbert–Peierls elimination: columns are
// processed sparsest-first (which makes the basic unit columns, slacks and
// equalities' artificials, factor with zero fill — the dominant case in the
// row-generation LPs), each column's fill pattern is discovered by a DFS over
// the partially built L, and the pivot row is the sparsest original row
// among those within kPivotThreshold of the largest eligible magnitude.
// Pivots update U in place (Forrest–Tomlin, see pivot()); ftran applies L,
// the row etas in order, then U in its triangular order; btran applies U^T,
// the row-eta transposes in reverse order, then L^T. All triangular sweeps
// are in scatter form, so zero intermediates are skipped — a sparse
// right-hand side (one constraint column in ftran, the mostly-structural c_B
// in btran) costs O(reachable nonzeros), not O(m^2).

void Basis::set_basic(std::vector<std::size_t> basic) {
  basic_ = std::move(basic);
  install_identity();
}

bool Basis::refactor_due() const {
  if (drifted_ || pivots_since_refactor_ >= kMaxUpdates) return true;
  return static_cast<double>(factor_nnz_) > kMaxFillGrowth * static_cast<double>(fresh_nnz_);
}

void Basis::check_factored() const {
  OEF_CHECK_MSG(udiag_.size() == basic_.size(),
                "append_row() left the factor short: refactor() before solving");
}

std::vector<double> Basis::ftran(const std::vector<double>& a) const {
  const std::size_t m = basic_.size();
  OEF_CHECK(a.size() == m);
  check_factored();
  std::vector<double> z(m, 0.0);
  for (std::size_t k = 0; k < m; ++k) z[k] = a[row_of_[k]];
  return ftran_factor_space(std::move(z));
}

std::vector<double> Basis::ftran(const std::vector<SparseEntry>& a) const {
  const std::size_t m = basic_.size();
  check_factored();
  std::vector<double> z(m, 0.0);
  // += so duplicate-row entries accumulate.
  for (const SparseEntry& entry : a) z[factor_of_row_[entry.row]] += entry.value;
  return ftran_factor_space(std::move(z));
}

std::vector<double> Basis::btran(const std::vector<double>& cb) const {
  OEF_CHECK(cb.size() == basic_.size());
  std::vector<double> c = cb;
  return btran_position_space(std::move(c));
}

std::vector<double> Basis::btran_unit(std::size_t pos) const {
  const std::size_t m = basic_.size();
  OEF_CHECK(pos < m);
  std::vector<double> c(m, 0.0);
  c[pos] = 1.0;
  return btran_position_space(std::move(c));
}

void Basis::pivot(std::size_t leave_row, std::size_t enter_col,
                  const std::vector<SparseEntry>& column, double ftran_pivot) {
  const std::size_t m = basic_.size();
  OEF_CHECK(leave_row < m);
  check_factored();
  const std::size_t r = factor_of_pos_[leave_row];
  // The spike: the entering column through the row permutation, L and the
  // row etas so far. It replaces column r of U.
  std::vector<double> spike(m, 0.0);
  for (const SparseEntry& entry : column) spike[factor_of_row_[entry.row]] += entry.value;
  lower_solve(spike);
  for (const Entry& e : ucols_[r]) erase_index(urows_[e.idx], r);
  factor_nnz_ -= ucols_[r].size();
  ucols_[r].clear();

  // Row and column r move to the end of the triangular order, which leaves
  // row r's off-diagonal entries below the diagonal. One row eta eliminates
  // them with multiples of the later rows, in order; fill lands only further
  // along, so one scan that stops when no nonzero is left sees each entry
  // once. The eliminated rows' spike entries fold into the new diagonal.
  std::vector<double> row(m, 0.0);
  std::size_t pending = urows_[r].size();
  for (const Entry& e : urows_[r]) {
    row[e.idx] = e.value;
    erase_index(ucols_[e.idx], r);
  }
  factor_nnz_ -= urows_[r].size();
  urows_[r].clear();
  RowEta eta{r, {}};
  double diag = spike[r];
  for (std::size_t slot = slot_of_[r] + 1; pending > 0 && slot < order_.size(); ++slot) {
    const std::size_t j = order_[slot];
    if (j == kMoved || row[j] == 0.0) continue;
    const double mult = row[j] / udiag_[j];
    row[j] = 0.0;
    --pending;
    eta.entries.push_back({j, mult});
    diag -= mult * spike[j];
    for (const Entry& e : urows_[j]) {
      const double before = row[e.idx];
      const double after = before - mult * e.value;
      row[e.idx] = after;
      if (before == 0.0 && after != 0.0) ++pending;
      if (before != 0.0 && after == 0.0) --pending;
    }
  }

  for (std::size_t i = 0; i < m; ++i) {
    if (i == r || spike[i] == 0.0) continue;
    ucols_[r].push_back({i, spike[i]});
    urows_[i].push_back({r, spike[i]});
  }
  factor_nnz_ += ucols_[r].size() + eta.entries.size();
  if (!eta.entries.empty()) row_etas_.push_back(std::move(eta));
  order_[slot_of_[r]] = kMoved;
  slot_of_[r] = order_.size();
  order_.push_back(r);

  // The update scales det U by the ftran pivot and changes only diagonal r,
  // so the new diagonal must be the old one times that pivot.
  const double expected = udiag_[r] * ftran_pivot;
  if (!(std::abs(diag - expected) <= kUpdateTol * std::abs(expected)) ||
      std::abs(diag) < kSingularTol) {
    drifted_ = true;
  }
  udiag_[r] = diag;
  last_update_ = r;
  basic_[leave_row] = enter_col;
  ++pivots_since_refactor_;
}

bool Basis::corrupt_last_eta(double factor) {
  if (last_update_ == SIZE_MAX) return false;
  udiag_[last_update_] *= factor;
  return true;
}

void Basis::install_identity() {
  const std::size_t m = basic_.size();
  lcols_.assign(m, {});
  lrows_.assign(m, {});
  ucols_.assign(m, {});
  urows_.assign(m, {});
  udiag_.assign(m, 1.0);
  row_of_.resize(m);
  col_order_.resize(m);
  factor_of_row_.resize(m);
  std::iota(row_of_.begin(), row_of_.end(), std::size_t{0});
  std::iota(col_order_.begin(), col_order_.end(), std::size_t{0});
  std::iota(factor_of_row_.begin(), factor_of_row_.end(), std::size_t{0});
  factor_of_pos_ = col_order_;
  fresh_nnz_ = m;
  reset_updates();
}

void Basis::reset_updates() {
  const std::size_t m = basic_.size();
  order_.resize(m);
  slot_of_.resize(m);
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::iota(slot_of_.begin(), slot_of_.end(), std::size_t{0});
  row_etas_.clear();
  factor_nnz_ = fresh_nnz_;
  last_update_ = SIZE_MAX;
  drifted_ = false;
  pivots_since_refactor_ = 0;
}

void Basis::lower_solve(std::vector<double>& z) const {
  const std::size_t m = basic_.size();
  // L z' = z, forward scatter: zero intermediates skip their column.
  for (std::size_t k = 0; k < m; ++k) {
    const double zk = z[k];
    if (zk == 0.0) continue;
    for (const Entry& e : lcols_[k]) z[e.idx] -= e.value * zk;
  }
  for (const RowEta& eta : row_etas_) {
    double acc = z[eta.row];
    for (const Entry& e : eta.entries) acc -= e.value * z[e.idx];
    z[eta.row] = acc;
  }
}

std::vector<double> Basis::ftran_factor_space(std::vector<double> z) const {
  const std::size_t m = basic_.size();
  lower_solve(z);
  // U y = z', backward scatter in reverse triangular order.
  for (std::size_t slot = order_.size(); slot-- > 0;) {
    const std::size_t k = order_[slot];
    if (k == kMoved || z[k] == 0.0) continue;
    const double yk = z[k] / udiag_[k];
    z[k] = yk;
    for (const Entry& e : ucols_[k]) z[e.idx] -= e.value * yk;
  }
  std::vector<double> w(m, 0.0);
  for (std::size_t k = 0; k < m; ++k) w[col_order_[k]] = z[k];
  return w;
}

std::vector<double> Basis::btran_position_space(std::vector<double> c) const {
  const std::size_t m = basic_.size();
  check_factored();
  std::vector<double> g(m, 0.0);
  for (std::size_t k = 0; k < m; ++k) g[k] = c[col_order_[k]];
  // U^T z = g, forward scatter over U rows in triangular order; zero
  // intermediates skip their row.
  for (const std::size_t j : order_) {
    if (j == kMoved) continue;
    const double zj = g[j] / udiag_[j];
    g[j] = zj;
    if (zj == 0.0) continue;
    for (const Entry& e : urows_[j]) g[e.idx] -= e.value * zj;
  }
  // Row-eta transposes, newest first.
  for (auto it = row_etas_.rbegin(); it != row_etas_.rend(); ++it) {
    const double v = g[it->row];
    if (v == 0.0) continue;
    for (const Entry& e : it->entries) g[e.idx] -= e.value * v;
  }
  // L^T v = z, backward scatter over L rows.
  for (std::size_t i = m; i-- > 0;) {
    const double vi = g[i];
    if (vi == 0.0) continue;
    for (const Entry& e : lrows_[i]) g[e.idx] -= e.value * vi;
  }
  std::vector<double> y(m, 0.0);
  for (std::size_t k = 0; k < m; ++k) y[row_of_[k]] = g[k];
  return y;
}

bool Basis::refactor(const SparseMatrix& columns) {
  const std::size_t m = basic_.size();
  if (m == 0) {
    install_identity();
    return true;
  }

  // Column order: sparsest first (stable on position). All unit columns
  // (slacks, equalities' artificials) factor first with zero fill; only the
  // structural "bump" columns can generate elimination work.
  std::vector<std::size_t> order(m);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return columns.column(basic_[a]).size() < columns.column(basic_[b]).size();
  });

  // Static row counts over the basis columns, for the Markowitz tie-break.
  std::vector<std::size_t> row_count(m, 0);
  for (std::size_t p = 0; p < m; ++p) {
    for (const SparseEntry& e : columns.column(basic_[p])) ++row_count[e.row];
  }

  std::vector<std::size_t> factor_of_row(m, SIZE_MAX);
  std::vector<std::size_t> row_of(m, SIZE_MAX);
  std::vector<std::size_t> col_order(m, SIZE_MAX);
  std::vector<double> udiag(m, 0.0);
  // L columns during elimination, indexed by original row (converted to
  // factor indices once every row is pivotal).
  std::vector<std::vector<Entry>> lcols_orig(m);
  std::vector<std::vector<Entry>> ucols(m);

  std::vector<double> x(m, 0.0);
  std::vector<std::size_t> visited(m, SIZE_MAX);
  std::vector<std::size_t> touched;
  std::vector<std::size_t> topo;
  // Iterative DFS stack: (original row, next child index in its L column).
  std::vector<std::pair<std::size_t, std::size_t>> dfs;

  deficiency_.clear();
  std::vector<std::size_t> deferred;
  std::size_t step = 0;
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t pos = order[k];
    const std::vector<SparseEntry>& column = columns.column(basic_[pos]);
    touched.clear();
    topo.clear();
    for (const SparseEntry& e : column) x[e.row] = e.value;

    // Symbolic step: the fill pattern of L^-1 * column is the set of rows
    // reachable from the column's pattern through the columns of L already
    // built; reverse postorder of the DFS is a valid elimination order.
    for (const SparseEntry& e : column) {
      if (visited[e.row] == k) continue;
      dfs.clear();
      dfs.push_back({e.row, 0});
      visited[e.row] = k;
      touched.push_back(e.row);
      while (!dfs.empty()) {
        auto& [row, child] = dfs.back();
        const std::size_t t = factor_of_row[row];
        if (t == SIZE_MAX) {
          dfs.pop_back();
          continue;
        }
        const std::vector<Entry>& lcol = lcols_orig[t];
        if (child < lcol.size()) {
          const std::size_t next = lcol[child].idx;
          ++child;
          if (visited[next] != k) {
            visited[next] = k;
            touched.push_back(next);
            dfs.push_back({next, 0});
          }
        } else {
          topo.push_back(t);
          dfs.pop_back();
        }
      }
    }

    // Numeric elimination in reverse postorder.
    std::vector<Entry>& ucol = ucols[step];
    ucol.clear();
    for (std::size_t idx = topo.size(); idx-- > 0;) {
      const std::size_t t = topo[idx];
      const double utk = x[row_of[t]];
      if (utk == 0.0) continue;
      ucol.push_back({t, utk});
      for (const Entry& e : lcols_orig[t]) x[e.idx] -= utk * e.value;
    }

    // Threshold partial pivoting with a sparsest-row tie-break. A column
    // whose eliminated form has no usable pivot is deferred: accumulated
    // update drift can let the simplex adopt a column the true basis does
    // not admit, and the caller repairs such deficiencies with unit columns
    // rather than abandoning the factorisation (see deficiency()).
    double best_mag = 0.0;
    for (const std::size_t r : touched) {
      if (factor_of_row[r] == SIZE_MAX) best_mag = std::max(best_mag, std::abs(x[r]));
    }
    if (best_mag < kSingularTol) {
      for (const std::size_t r : touched) x[r] = 0.0;
      deferred.push_back(pos);
      continue;
    }
    std::size_t pivot_row = SIZE_MAX;
    for (const std::size_t r : touched) {
      if (factor_of_row[r] != SIZE_MAX) continue;
      if (std::abs(x[r]) < kPivotThreshold * best_mag) continue;
      if (pivot_row == SIZE_MAX || row_count[r] < row_count[pivot_row] ||
          (row_count[r] == row_count[pivot_row] && r < pivot_row)) {
        pivot_row = r;
      }
    }
    const double pivot_value = x[pivot_row];
    factor_of_row[pivot_row] = step;
    row_of[step] = pivot_row;
    std::vector<Entry>& lcol = lcols_orig[step];
    lcol.clear();
    for (const std::size_t r : touched) {
      if (factor_of_row[r] == SIZE_MAX && x[r] != 0.0) {
        lcol.push_back({r, x[r] / pivot_value});
      }
      x[r] = 0.0;
    }
    udiag[step] = pivot_value;
    col_order[step] = pos;
    ++step;
  }
  if (!deferred.empty()) {
    // Pair each deferred basis position with one still-unpivoted row; the
    // caller patches the position with the unit column of that row.
    std::vector<std::size_t> unpivoted;
    for (std::size_t r = 0; r < m; ++r) {
      if (factor_of_row[r] == SIZE_MAX) unpivoted.push_back(r);
    }
    OEF_CHECK(unpivoted.size() == deferred.size());
    for (std::size_t d = 0; d < deferred.size(); ++d) {
      deficiency_.push_back({deferred[d], unpivoted[d]});
    }
    return false;
  }

  // Commit: convert L to factor space and build the row-major mirrors.
  row_of_ = std::move(row_of);
  factor_of_row_ = std::move(factor_of_row);
  col_order_ = std::move(col_order);
  udiag_ = std::move(udiag);
  lcols_.assign(m, {});
  lrows_.assign(m, {});
  ucols_ = std::move(ucols);
  urows_.assign(m, {});
  factor_of_pos_.resize(m);
  fresh_nnz_ = m;
  for (std::size_t k = 0; k < m; ++k) {
    factor_of_pos_[col_order_[k]] = k;
    lcols_[k].reserve(lcols_orig[k].size());
    for (const Entry& e : lcols_orig[k]) {
      lcols_[k].push_back({factor_of_row_[e.idx], e.value});
    }
    fresh_nnz_ += lcols_[k].size() + ucols_[k].size();
  }
  for (std::size_t k = 0; k < m; ++k) {
    for (const Entry& e : lcols_[k]) lrows_[e.idx].push_back({k, e.value});
    for (const Entry& e : ucols_[k]) urows_[e.idx].push_back({k, e.value});
  }
  reset_updates();
  return true;
}

}  // namespace oef::solver

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
}  // namespace

// Refactorisation is a left-looking Gilbert–Peierls elimination: columns are
// processed sparsest-first (which makes the basic slack/artificial unit
// columns factor with zero fill — the dominant case in the row-generation
// LPs), each column's fill pattern is discovered by a DFS over the partially
// built L, and the pivot row is the sparsest original row among those within
// kPivotThreshold of the largest eligible magnitude. Pivots append sparse
// etas; ftran applies LU solves then etas in order, btran applies eta
// transposes in reverse order then the transposed LU solves. All four
// triangular sweeps are in scatter form, so zero intermediates are skipped —
// a sparse right-hand side (one constraint column in ftran, the
// mostly-structural c_B in btran) costs O(reachable nonzeros), not O(m^2).

void Basis::set_basic(std::vector<std::size_t> basic) {
  basic_ = std::move(basic);
  install_identity();
  pivots_since_refactor_ = 0;
}

bool Basis::refactor_due() const {
  if (etas_.size() >= kMaxEtas) return true;
  const double fresh = static_cast<double>(lu_nnz_ + basic_.size());
  return static_cast<double>(eta_nnz_) > kMaxFillGrowth * fresh;
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
                  const std::vector<double>& ftran_col) {
  const std::size_t m = basic_.size();
  OEF_CHECK(leave_row < m);
  OEF_CHECK(ftran_col.size() == m);
  Eta eta;
  eta.pos = leave_row;
  eta.pivot = ftran_col[leave_row];
  for (std::size_t i = 0; i < m; ++i) {
    if (i == leave_row || ftran_col[i] == 0.0) continue;
    eta.others.push_back({i, ftran_col[i]});
  }
  eta_nnz_ += eta.others.size() + 1;
  etas_.push_back(std::move(eta));
  basic_[leave_row] = enter_col;
  ++pivots_since_refactor_;
}

bool Basis::corrupt_last_eta(double factor) {
  if (etas_.empty()) return false;
  etas_.back().pivot *= factor;
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
  etas_.clear();
  eta_nnz_ = 0;
  lu_nnz_ = m;
}

std::vector<double> Basis::ftran_factor_space(std::vector<double> z) const {
  const std::size_t m = basic_.size();
  // L z' = z, forward scatter: zero intermediates skip their column.
  for (std::size_t k = 0; k < m; ++k) {
    const double zk = z[k];
    if (zk == 0.0) continue;
    for (const Entry& e : lcols_[k]) z[e.idx] -= e.value * zk;
  }
  // U y = z', backward scatter.
  for (std::size_t k = m; k-- > 0;) {
    if (z[k] == 0.0) continue;
    const double yk = z[k] / udiag_[k];
    z[k] = yk;
    for (const Entry& e : ucols_[k]) z[e.idx] -= e.value * yk;
  }
  // Back to basis positions, then the eta file in chronological order.
  std::vector<double> w(m, 0.0);
  for (std::size_t k = 0; k < m; ++k) w[col_order_[k]] = z[k];
  for (const Eta& eta : etas_) {
    // (E^-1 w)_pos = w_pos / pivot; the off-pivot entries shed that much.
    const double wp = w[eta.pos] / eta.pivot;
    w[eta.pos] = wp;
    if (wp == 0.0) continue;
    for (const Entry& e : eta.others) w[e.idx] -= e.value * wp;
  }
  return w;
}

std::vector<double> Basis::btran_position_space(std::vector<double> c) const {
  const std::size_t m = basic_.size();
  check_factored();
  // Eta transposes in reverse order: c <- E^-T c.
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    double acc = c[it->pos];
    for (const Entry& e : it->others) acc -= e.value * c[e.idx];
    c[it->pos] = acc / it->pivot;
  }
  std::vector<double> g(m, 0.0);
  for (std::size_t k = 0; k < m; ++k) g[k] = c[col_order_[k]];
  // U^T z = g, forward scatter over U rows; zero intermediates skip their row.
  for (std::size_t j = 0; j < m; ++j) {
    const double zj = g[j] / udiag_[j];
    g[j] = zj;
    if (zj == 0.0) continue;
    for (const Entry& e : urows_[j]) g[e.idx] -= e.value * zj;
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
    pivots_since_refactor_ = 0;
    return true;
  }

  // Column order: sparsest first (stable on position). All unit slack /
  // artificial columns factor first with zero fill; only the structural
  // "bump" columns can generate elimination work.
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
    // caller patches the position with a unit column of that row.
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
  lu_nnz_ = m;
  for (std::size_t k = 0; k < m; ++k) {
    lcols_[k].reserve(lcols_orig[k].size());
    for (const Entry& e : lcols_orig[k]) {
      lcols_[k].push_back({factor_of_row_[e.idx], e.value});
    }
    lu_nnz_ += lcols_[k].size() + ucols_[k].size();
  }
  for (std::size_t k = 0; k < m; ++k) {
    for (const Entry& e : lcols_[k]) lrows_[e.idx].push_back({k, e.value});
    for (const Entry& e : ucols_[k]) urows_[e.idx].push_back({k, e.value});
  }
  etas_.clear();
  eta_nnz_ = 0;
  pivots_since_refactor_ = 0;
  return true;
}

}  // namespace oef::solver

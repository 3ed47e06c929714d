// Factored (sparse LU + Forrest–Tomlin updates) basis, checked against B
// itself.
//
// Every ftran/btran/btran_unit result is multiplied back by the basis matrix
// (B·ftran(b) = b, btran(c)ᵀ·B = cᵀ, btran_unit(p)ᵀ·B = e_pᵀ), which needs no
// second representation of B^-1: on a fresh factor, across updates (a long
// sequence on an Eq. 10-shaped basis included), after a row append and
// refactor, across the refactor trigger, and for the renumbered basic set
// left by warm row deletion. An update whose ftran pivot disagrees with the
// factor must make the basis due for refactorisation. On top of the
// unit-level checks, whole solves must reach the independent tableau's
// optimum, the lazy-loop relaxation compaction must take the warm-deletion
// path, and a cooperative allocation must refactorise rarely.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "core/oef.h"
#include "core/speedup_matrix.h"
#include "solver/basis.h"
#include "solver/lp_model.h"
#include "solver/lp_solver.h"
#include "solver/simplex.h"
#include "solver/sparse_matrix.h"

namespace oef::solver {
namespace {

constexpr double kTol = 1e-8;

/// Random constraint matrix: m unit (slack-like) columns followed by `extra`
/// sparse structural columns, mirroring the shape of the row-generation LPs.
SparseMatrix random_matrix(common::Rng& rng, std::size_t m, std::size_t extra) {
  SparseMatrix a;
  a.reset(m);
  for (std::size_t j = 0; j < m; ++j) {
    a.add_column();
    a.add_entry(j, j, rng.uniform() < 0.25 ? -1.0 : 1.0);
  }
  for (std::size_t j = 0; j < extra; ++j) {
    const std::size_t col = a.add_column();
    const std::size_t nnz = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(std::min<std::size_t>(m, 4))));
    std::vector<std::size_t> picked;
    for (std::size_t t = 0; t < nnz; ++t) {
      picked.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(m) - 1)));
    }
    std::sort(picked.begin(), picked.end());
    picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
    for (const std::size_t row : picked) {
      double v = rng.uniform(-3.0, 3.0);
      if (std::abs(v) < 0.1) v = v < 0.0 ? -0.1 : 0.1;
      a.add_entry(col, row, v);
    }
  }
  return a;
}

/// Constraint matrix shaped like the cooperative LP of Eq. 10: m unit
/// columns (one slack per row, the basis a solve starts from), then n·k
/// structural columns x_{l,j} (column m + l·k + j). Rows 0..k-1 are the
/// capacity rows Σ_l x_{l,j}; every further row is an envy row between a
/// random pair of users l ≠ l': Σ_j w_{l,j} x_{l,j} − Σ_j w_{l,j} x_{l',j},
/// with monotone speedup rows w as bench_scaling draws them.
SparseMatrix eq10_matrix(common::Rng& rng, std::size_t n, std::size_t k, std::size_t m) {
  std::vector<std::vector<double>> w(n, std::vector<double>(k, 1.0));
  for (auto& row : w) {
    for (std::size_t j = 1; j < k; ++j) row[j] = row[j - 1] * rng.uniform(1.05, 2.0);
  }
  SparseMatrix a;
  a.reset(m);
  for (std::size_t i = 0; i < m; ++i) a.add_entry(a.add_column(), i, 1.0);
  for (std::size_t c = 0; c < n * k; ++c) a.add_column();
  // Row by row, so every column's entries stay row-sorted.
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t l = 0; l < n; ++l) a.add_entry(m + l * k + j, j, 1.0);
  }
  const auto user = [&](std::int64_t last) {
    return static_cast<std::size_t>(rng.uniform_int(0, last));
  };
  for (std::size_t i = k; i < m; ++i) {
    const std::size_t l = user(static_cast<std::int64_t>(n) - 1);
    std::size_t other = user(static_cast<std::int64_t>(n) - 2);
    if (other >= l) ++other;
    for (std::size_t j = 0; j < k; ++j) {
      a.add_entry(m + l * k + j, i, w[l][j]);
      a.add_entry(m + other * k + j, i, -w[l][j]);
    }
  }
  return a;
}

/// Random basic set: the identity columns, with a few positions swapped for
/// distinct structural columns that cover the replaced row (which makes most
/// draws nonsingular). Still not guaranteed — callers skip the trial when
/// refactor() reports singularity.
std::vector<std::size_t> random_basic(common::Rng& rng, const SparseMatrix& a,
                                      std::size_t m, std::size_t extra) {
  std::vector<std::size_t> basic(m);
  for (std::size_t i = 0; i < m; ++i) basic[i] = i;
  std::vector<std::size_t> structural(extra);
  for (std::size_t j = 0; j < extra; ++j) structural[j] = m + j;
  rng.shuffle(structural);
  const std::size_t swaps = std::min<std::size_t>(
      structural.size(), static_cast<std::size_t>(rng.uniform_int(0, 3)));
  std::vector<char> used(m, 0);
  for (std::size_t s = 0; s < swaps; ++s) {
    const std::size_t col = structural[s];
    for (const SparseEntry& e : a.column(col)) {
      if (!used[e.row] && std::abs(e.value) > 0.2) {
        basic[e.row] = col;
        used[e.row] = 1;
        break;
      }
    }
  }
  return basic;
}

/// Residual tolerance: every check below multiplies a solve result back by
/// the basis matrix B itself, so agreement is independent of how B^-1 is
/// represented.
bool close(double got, double want) {
  return std::abs(got - want) <= kTol * (1.0 + std::abs(want));
}

/// B·w for a basis-position-indexed w: Σ_p w[p] · A[:, basic[p]].
std::vector<double> times_b(const Basis& basis, const SparseMatrix& a,
                            const std::vector<double>& w) {
  std::vector<double> out(a.rows(), 0.0);
  for (std::size_t p = 0; p < basis.size(); ++p) {
    a.axpy_column(basis.basic()[p], w[p], out);
  }
  return out;
}

/// Checks B·ftran(b) = b, B·ftran(A_j) = A_j, btran(c)ᵀ·B = cᵀ and
/// btran_unit(p)ᵀ·B = e_pᵀ on random right-hand sides.
void expect_residuals_vanish(const Basis& basis, const SparseMatrix& a, common::Rng& rng,
                             const char* label) {
  const std::size_t m = basis.size();
  ASSERT_EQ(a.rows(), m) << label;

  std::vector<double> rhs(m);
  for (double& v : rhs) v = rng.uniform(-2.0, 2.0);
  const std::vector<double> back = times_b(basis, a, basis.ftran(rhs));
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_TRUE(close(back[i], rhs[i])) << label << ": B·ftran(b) row " << i;
  }

  const std::size_t col =
      static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(a.cols()) - 1));
  std::vector<double> a_col(m, 0.0);
  a.axpy_column(col, 1.0, a_col);
  const std::vector<double> back_col = times_b(basis, a, basis.ftran(a.column(col)));
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_TRUE(close(back_col[i], a_col[i])) << label << ": B·ftran(A_j) row " << i;
  }

  std::vector<double> cb(m, 0.0);
  for (double& v : cb) {
    if (rng.uniform() < 0.5) v = rng.uniform(-2.0, 2.0);  // mostly-zero, like c_B
  }
  const std::vector<double> y = basis.btran(cb);
  for (std::size_t p = 0; p < m; ++p) {
    EXPECT_TRUE(close(a.dot_column(basis.basic()[p], y), cb[p]))
        << label << ": btran(c)ᵀ·B position " << p;
  }

  const std::size_t pos =
      static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(m) - 1));
  const std::vector<double> rho = basis.btran_unit(pos);
  for (std::size_t p = 0; p < m; ++p) {
    EXPECT_TRUE(close(a.dot_column(basis.basic()[p], rho), p == pos ? 1.0 : 0.0))
        << label << ": btran_unit(" << pos << ")ᵀ·B position " << p;
  }
}

/// One update on a random nonbasic column with a comfortably nonsingular
/// pivot element, as lp_solver.cpp performs it (the basis computes its own
/// ftran column). Returns false when the drawn column has no usable pivot.
bool random_pivot(Basis& basis, const SparseMatrix& a, std::vector<char>& in_basis,
                  common::Rng& rng) {
  const std::size_t enter = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(a.cols()) - 1));
  if (in_basis[enter]) return false;
  const std::vector<double> w = basis.ftran(a.column(enter));
  std::size_t leave = SIZE_MAX;
  double best = 0.2;
  for (std::size_t i = 0; i < basis.size(); ++i) {
    if (std::abs(w[i]) > best) {
      best = std::abs(w[i]);
      leave = i;
    }
  }
  if (leave == SIZE_MAX) return false;
  in_basis[basis.basic()[leave]] = 0;
  in_basis[enter] = 1;
  basis.pivot(leave, enter, a.column(enter), w[leave]);
  return true;
}

TEST(FactoredBasis, FreshFactorisationsSolveAgainstB) {
  common::Rng rng(20260731);
  int checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 24));
    const std::size_t extra = static_cast<std::size_t>(rng.uniform_int(1, 12));
    const SparseMatrix a = random_matrix(rng, m, extra);
    Basis basis;
    basis.set_basic(random_basic(rng, a, m, extra));
    if (!basis.refactor(a)) continue;
    ++checked;
    expect_residuals_vanish(basis, a, rng, "fresh factor");
  }
  EXPECT_GE(checked, 25);  // the generator must produce real work
}

TEST(FactoredBasis, UpdatesAndRowAppendsSolveAgainstB) {
  common::Rng rng(411);
  int pivots_done = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(3, 16));
    const std::size_t extra = static_cast<std::size_t>(rng.uniform_int(4, 12));
    SparseMatrix a = random_matrix(rng, m, extra);
    std::vector<std::size_t> basic(m);
    for (std::size_t i = 0; i < m; ++i) basic[i] = i;
    Basis basis;
    basis.set_basic(basic);
    ASSERT_TRUE(basis.refactor(a));

    std::vector<char> in_basis(a.cols(), 0);
    for (const std::size_t j : basic) in_basis[j] = 1;
    for (int p = 0; p < 8; ++p) {
      if (!random_pivot(basis, a, in_basis, rng)) continue;
      ++pivots_done;
      expect_residuals_vanish(basis, a, rng, "after pivots");
    }

    // Row append on top of the updates, as add_rows() + resolve() perform
    // it: the matrix gains the new row (on basic and nonbasic columns alike)
    // and a slack column that joins the basic set, then the basis is
    // refactorised against the extended matrix.
    const std::size_t new_row = a.rows();
    a.set_rows(new_row + 1);
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (rng.uniform() < 0.4) a.add_entry(j, new_row, rng.uniform(-2.0, 2.0));
    }
    const std::size_t slack_col = a.add_column();
    a.add_entry(slack_col, new_row, 1.0);
    in_basis.push_back(1);
    basis.append_row(slack_col);
    ASSERT_EQ(basis.size(), new_row + 1);
    EXPECT_EQ(basis.basic().back(), slack_col);
    ASSERT_TRUE(basis.refactor(a));
    expect_residuals_vanish(basis, a, rng, "after append + refactor");

    // Further pivots on top of the refactorised basis stay exact too.
    for (int p = 0; p < 3; ++p) {
      if (random_pivot(basis, a, in_basis, rng)) {
        expect_residuals_vanish(basis, a, rng, "pivots after append");
      }
    }
  }
  EXPECT_GE(pivots_done, 40);
}

/// The position refactor() puts first in U's triangular order: it orders
/// the basic columns sparsest-first, stable on position.
std::size_t first_in_order(const Basis& basis, const SparseMatrix& a) {
  std::size_t first = 0;
  for (std::size_t p = 1; p < basis.size(); ++p) {
    if (a.column(basis.basic()[p]).size() < a.column(basis.basic()[first]).size()) first = p;
  }
  return first;
}

/// A nonbasic column whose pivot element in position `pos` is comfortably
/// nonsingular, drawn at random among those (from row `pos` of B^-1), or
/// SIZE_MAX when there is none.
std::size_t entering_for(const Basis& basis, const SparseMatrix& a,
                         const std::vector<char>& in_basis, std::size_t pos,
                         common::Rng& rng) {
  const std::vector<double> rho = basis.btran_unit(pos);
  std::vector<std::size_t> candidates;
  for (std::size_t j = 0; j < a.cols(); ++j) {
    if (!in_basis[j] && std::abs(a.dot_column(j, rho)) > 0.2) candidates.push_back(j);
  }
  if (candidates.empty()) return SIZE_MAX;
  return candidates[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];
}

TEST(FactoredBasis, LongUpdateSequenceOnEq10BasisSolvesAgainstB) {
  // An Eq. 10-shaped basis (3 capacity rows and 317 envy rows over 40 users)
  // starts on its unit columns and takes 2.5 update caps' worth of updates,
  // refactorising whenever one is due. Each solve is checked against B after
  // every update. Three moves recur on purpose: the first update after each
  // factorisation leaves the position first in U's order, every third
  // update leaves the position the previous one entered (last in the order),
  // and every fifth update re-enters the column the previous one evicted.
  common::Rng rng(1972);
  const std::size_t m = 320;
  const SparseMatrix a = eq10_matrix(rng, 40, 3, m);
  std::vector<std::size_t> basic(m);
  std::iota(basic.begin(), basic.end(), std::size_t{0});
  Basis basis;
  basis.set_basic(basic);
  ASSERT_TRUE(basis.refactor(a));
  std::vector<char> in_basis(a.cols(), 0);
  for (const std::size_t j : basic) in_basis[j] = 1;

  std::size_t last_pos = SIZE_MAX;
  std::size_t last_left = SIZE_MAX;
  bool fresh = true;
  std::size_t updates = 0;
  std::size_t refactors = 0;
  std::size_t first_moves = 0;
  std::size_t last_moves = 0;
  std::size_t reentries = 0;
  for (std::size_t step = 1; updates < 5 * Basis::kMaxUpdates / 2; ++step) {
    ASSERT_LT(step, 20 * Basis::kMaxUpdates) << "too few usable pivots";
    if (basis.refactor_due()) {
      ASSERT_TRUE(basis.refactor(a));
      ++refactors;
      fresh = true;
    }
    std::size_t leave = SIZE_MAX;
    std::size_t enter = SIZE_MAX;
    enum { kRandom, kFirst, kLast, kReentry } move = kRandom;
    if (fresh) {
      leave = first_in_order(basis, a);
      move = kFirst;
    } else if (step % 3 == 0) {
      leave = last_pos;
      move = kLast;
    } else if (step % 5 == 0 && !in_basis[last_left]) {
      enter = last_left;
      move = kReentry;
    }
    if (leave != SIZE_MAX) {
      enter = entering_for(basis, a, in_basis, leave, rng);
      if (enter == SIZE_MAX) continue;
    } else {
      if (enter == SIZE_MAX) {
        // Mostly structural columns, so the bump grows.
        enter = rng.uniform() < 0.8 ? static_cast<std::size_t>(rng.uniform_int(
                                          static_cast<std::int64_t>(m),
                                          static_cast<std::int64_t>(a.cols()) - 1))
                                    : static_cast<std::size_t>(rng.uniform_int(
                                          0, static_cast<std::int64_t>(m) - 1));
        if (in_basis[enter]) continue;
      }
      const std::vector<double> w = basis.ftran(a.column(enter));
      double best = 0.2;
      for (std::size_t i = 0; i < m; ++i) {
        if (std::abs(w[i]) > best) {
          best = std::abs(w[i]);
          leave = i;
        }
      }
      if (leave == SIZE_MAX) continue;
    }
    const std::vector<double> w = basis.ftran(a.column(enter));
    last_left = basis.basic()[leave];
    in_basis[last_left] = 0;
    in_basis[enter] = 1;
    basis.pivot(leave, enter, a.column(enter), w[leave]);
    last_pos = leave;
    fresh = false;
    ++updates;
    first_moves += move == kFirst;
    last_moves += move == kLast;
    reentries += move == kReentry;
    expect_residuals_vanish(basis, a, rng, "long update sequence");
    if (HasFailure()) FAIL() << "after update " << updates;
  }
  EXPECT_GE(refactors, 2u);
  EXPECT_GE(first_moves, 3u);
  EXPECT_GE(last_moves, 20u);
  EXPECT_GE(reentries, 10u);
}

TEST(FactoredBasis, UpdateWhosePivotDisagreesWithTheFactorIsDue) {
  // An update's new U diagonal must equal the old one times its ftran pivot.
  // The second update below leaves the position the first one entered, so
  // it works on the first update's diagonal, and its pivot comes from an
  // ftran taken before that diagonal was corrupted: the two disagree, and
  // the basis is due. Without the corruption the same updates are not.
  common::Rng rng(31);
  const std::size_t m = 40;
  const SparseMatrix a = eq10_matrix(rng, 8, 3, m);
  for (const bool corrupt : {false, true}) {
    std::vector<std::size_t> basic(m);
    std::iota(basic.begin(), basic.end(), std::size_t{0});
    Basis basis;
    basis.set_basic(basic);
    ASSERT_TRUE(basis.refactor(a));
    EXPECT_FALSE(basis.corrupt_last_eta(1e3));  // no update to corrupt yet

    const std::size_t enter = m + 4;  // a structural column
    const std::vector<double> w = basis.ftran(a.column(enter));
    const std::size_t leave = static_cast<std::size_t>(
        std::max_element(w.begin(), w.end(), [](double x, double y) {
          return std::abs(x) < std::abs(y);
        }) -
        w.begin());
    ASSERT_GT(std::abs(w[leave]), 0.2);
    const std::size_t left = basis.basic()[leave];
    basis.pivot(leave, enter, a.column(enter), w[leave]);
    EXPECT_FALSE(basis.refactor_due());

    // The evicted column re-enters at the same position.
    const std::vector<double> back = basis.ftran(a.column(left));
    if (corrupt) {
      ASSERT_TRUE(basis.corrupt_last_eta(1e3));
    }
    basis.pivot(leave, left, a.column(left), back[leave]);
    EXPECT_EQ(basis.refactor_due(), corrupt);

    ASSERT_TRUE(basis.refactor(a));
    EXPECT_FALSE(basis.refactor_due());
    expect_residuals_vanish(basis, a, rng, corrupt ? "refactor after drift" : "clean updates");
  }
}

TEST(FactoredBasis, RefactorTriggerTracksUpdateCapAndResetsIt) {
  common::Rng rng(555);
  const std::size_t m = 12;
  const std::size_t extra = 10;
  const SparseMatrix a = random_matrix(rng, m, extra);
  std::vector<std::size_t> basic(m);
  for (std::size_t i = 0; i < m; ++i) basic[i] = i;
  Basis basis;
  basis.set_basic(basic);
  ASSERT_TRUE(basis.refactor(a));
  EXPECT_FALSE(basis.refactor_due());  // a fresh factor is never due

  // Update until the trigger fires: by factor growth or, at the latest, at
  // the update cap.
  std::vector<char> in_basis(a.cols(), 0);
  for (const std::size_t j : basic) in_basis[j] = 1;
  std::size_t pivots = 0;
  for (int attempt = 0; attempt < 2000 && !basis.refactor_due(); ++attempt) {
    if (random_pivot(basis, a, in_basis, rng)) ++pivots;
  }
  ASSERT_TRUE(basis.refactor_due());
  EXPECT_GE(pivots, 1u);
  EXPECT_LE(pivots, Basis::kMaxUpdates);
  EXPECT_EQ(basis.pivots_since_refactor(), pivots);

  // Refactorising only changes the representation: the new factor solves
  // against the same B, with no updates.
  ASSERT_TRUE(basis.refactor(a));
  EXPECT_EQ(basis.pivots_since_refactor(), 0u);
  EXPECT_FALSE(basis.refactor_due());
  expect_residuals_vanish(basis, a, rng, "across refactor");

  // Updates that add no nonzero reach the cap exactly: each row has two
  // unit columns, e_i and 2·e_i, and every update swaps one for the other.
  SparseMatrix units;
  units.reset(m);
  for (std::size_t i = 0; i < m; ++i) units.add_entry(units.add_column(), i, 1.0);
  for (std::size_t i = 0; i < m; ++i) units.add_entry(units.add_column(), i, 2.0);
  basis.set_basic(basic);
  ASSERT_TRUE(basis.refactor(units));
  for (std::size_t u = 0; u < Basis::kMaxUpdates; ++u) {
    EXPECT_FALSE(basis.refactor_due()) << "after " << u << " updates";
    const std::size_t pos = u % m;
    const std::size_t enter = basis.basic()[pos] < m ? pos + m : pos;
    const std::vector<double> w = basis.ftran(units.column(enter));
    basis.pivot(pos, enter, units.column(enter), w[pos]);
  }
  EXPECT_TRUE(basis.refactor_due());
  expect_residuals_vanish(basis, units, rng, "at the update cap");
}

TEST(FactoredBasis, SingularBasisReportsDeficiencyForRepair) {
  // Two positions holding the same structural column: the factorisation must
  // refuse and name exactly one (position, row) pair so the solver can patch
  // the position with a unit column — the basis-repair path that keeps large
  // solves from failing.
  SparseMatrix a;
  a.reset(3);
  for (std::size_t j = 0; j < 3; ++j) {
    a.add_column();
    a.add_entry(j, j, 1.0);
  }
  const std::size_t dup = a.add_column();
  a.add_entry(dup, 0, 1.0);
  a.add_entry(dup, 1, 2.0);
  a.add_entry(dup, 2, 1.0);

  Basis basis;
  basis.set_basic({dup, dup, 2});
  EXPECT_FALSE(basis.refactor(a));
  ASSERT_EQ(basis.deficiency().size(), 1u);
  const auto [pos, row] = basis.deficiency()[0];
  EXPECT_TRUE(pos == 0 || pos == 1);
  EXPECT_TRUE(row == 0 || row == 1);

  // Patching the deficient position with the row's unit column recovers.
  std::vector<std::size_t> repaired = {dup, dup, 2};
  repaired[pos] = row;  // unit column `row` covers constraint row `row`
  basis.set_basic(repaired);
  EXPECT_TRUE(basis.refactor(a));
  EXPECT_TRUE(basis.deficiency().empty());
}

TEST(FactoredBasis, WarmRowDeletionSolvesAgainstReducedB) {
  // The premise of warm row deletion: when the deleted rows' own unit
  // columns are basic, the surviving basic set (renumbered, as the solver
  // installs it) refactorises against the reduced matrix and solves exactly
  // against the reduced basis.
  common::Rng rng(808);
  int deletions = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(4, 18));
    const std::size_t extra = static_cast<std::size_t>(rng.uniform_int(2, 8));
    const SparseMatrix a = random_matrix(rng, m, extra);
    const std::vector<std::size_t> basic = random_basic(rng, a, m, extra);

    Basis basis;
    basis.set_basic(basic);
    if (!basis.refactor(a)) continue;

    // Delete up to two rows whose identity column is basic in place (the
    // random_basic construction keeps basic[i] == i unless swapped out).
    std::vector<std::size_t> rows;
    for (std::size_t i = 0; i < m && rows.size() < 2; ++i) {
      if (basic[i] == i) rows.push_back(i);
    }
    if (rows.empty()) continue;

    // Reduced matrix: drop the deleted rows and their unit columns.
    std::vector<char> drop_row(m, 0);
    for (const std::size_t r : rows) drop_row[r] = 1;
    std::vector<std::size_t> row_remap(m, SIZE_MAX);
    std::size_t next_row = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (!drop_row[i]) row_remap[i] = next_row++;
    }
    std::vector<std::size_t> col_remap(a.cols(), SIZE_MAX);
    std::size_t next_col = 0;
    SparseMatrix reduced;
    reduced.reset(next_row);
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (j < m && drop_row[j]) continue;  // unit column of a deleted row
      col_remap[j] = next_col++;
      const std::size_t nj = reduced.add_column();
      for (const SparseEntry& e : a.column(j)) {
        if (!drop_row[e.row]) reduced.add_entry(nj, row_remap[e.row], e.value);
      }
    }

    std::vector<std::size_t> survivors;
    for (std::size_t p = 0; p < m; ++p) {
      if (!drop_row[p]) survivors.push_back(col_remap[basic[p]]);
    }
    basis.set_basic(survivors);
    ASSERT_TRUE(basis.refactor(reduced));
    ++deletions;
    expect_residuals_vanish(basis, reduced, rng, "after warm deletion");
  }
  EXPECT_GE(deletions, 10);
}

TEST(FactoredBasis, LpSolverWarmDeleteMatchesColdSolve) {
  common::Rng rng(9091);
  int warm_deletes = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t nvars = static_cast<std::size_t>(rng.uniform_int(3, 8));
    LpModel model(Sense::kMaximize);
    for (std::size_t v = 0; v < nvars; ++v) {
      model.add_variable(0.0, kInf, rng.uniform(0.5, 3.0));
    }
    LinearExpr total;
    for (std::size_t v = 0; v < nvars; ++v) total.add(v, 1.0);
    model.add_constraint(std::move(total), Relation::kLessEqual, rng.uniform(3.0, 8.0));
    const std::size_t nrows = static_cast<std::size_t>(rng.uniform_int(3, 8));
    for (std::size_t r = 0; r < nrows; ++r) {
      LinearExpr expr;
      for (std::size_t v = 0; v < nvars; ++v) {
        if (rng.uniform() < 0.7) expr.add(v, rng.uniform(0.1, 2.0));
      }
      model.add_constraint(std::move(expr), Relation::kLessEqual, rng.uniform(2.0, 12.0));
    }

    LpSolver solver;
    const LpSolution first = solver.solve(model);
    ASSERT_TRUE(first.optimal()) << "trial " << trial;

    // Delete every row strictly loose at the optimum (the compaction rule).
    std::vector<std::size_t> loose;
    const auto& constraints = model.constraints();
    for (std::size_t c = 0; c < constraints.size(); ++c) {
      const double slack =
          constraints[c].rhs - constraints[c].expr.evaluate(first.values);
      if (slack > 1e-5) loose.push_back(c);
    }
    if (loose.empty()) continue;

    const bool warm = solver.delete_rows(loose);
    EXPECT_TRUE(warm) << "trial " << trial;
    EXPECT_TRUE(solver.has_basis()) << "trial " << trial;
    if (warm) ++warm_deletes;

    // The reduced model reoptimises warm and matches a cold solve; loose
    // rows cannot have been binding, so the objective is unchanged too.
    const LpSolution resolved = solver.resolve();
    ASSERT_TRUE(resolved.optimal()) << "trial " << trial;
    EXPECT_TRUE(resolved.warm_started) << "trial " << trial;
    LpSolver cold;
    const LpSolution reference = cold.solve(solver.model());
    ASSERT_TRUE(reference.optimal()) << "trial " << trial;
    EXPECT_NEAR(resolved.objective, reference.objective,
                1e-6 * (1.0 + std::abs(reference.objective)))
        << "trial " << trial;
    EXPECT_NEAR(resolved.objective, first.objective,
                1e-6 * (1.0 + std::abs(first.objective)))
        << "trial " << trial;
    EXPECT_TRUE(solver.model().is_feasible(resolved.values, 1e-6)) << "trial " << trial;
  }
  EXPECT_GE(warm_deletes, 10);
}

TEST(FactoredBasis, LazyCompactionTakesTheWarmPath) {
  // Cooperative OEF with a deliberately tight envy-row budget: compaction
  // must fire, stay warm, and not change the optimum.
  common::Rng rng(31337);
  const std::size_t n = 14;
  const std::size_t k = 3;
  std::vector<std::vector<double>> rows(n);
  for (auto& row : rows) {
    row.resize(k);
    row[0] = 1.0;
    for (std::size_t j = 1; j < k; ++j) row[j] = row[j - 1] * rng.uniform(1.05, 2.0);
  }
  const core::SpeedupMatrix w(std::move(rows));
  const std::vector<double> caps = {5.0, 7.0, 4.0};

  core::OefOptions reference_options;
  const core::AllocationResult reference =
      core::make_cooperative_oef(reference_options).allocate(w, caps);
  ASSERT_TRUE(reference.ok());

  core::OefOptions tight;
  tight.max_envy_rows_total = 3 * n;  // forces repeated compactions
  const core::OefAllocator allocator = core::make_cooperative_oef(tight);
  const core::AllocationResult compacted = allocator.allocate(w, caps);
  ASSERT_TRUE(compacted.ok());
  EXPECT_NEAR(compacted.total_efficiency, reference.total_efficiency,
              1e-6 * (1.0 + reference.total_efficiency));
  EXPECT_GT(compacted.compactions, 0u);
  EXPECT_EQ(compacted.compactions, compacted.warm_compactions)
      << "every compaction should excise rows in place";
  EXPECT_GT(compacted.envy_rows_dropped, 0u);

  // The recycled pool is the compacted final model, so an identical next
  // call reloads that model, reuses its optimal basis, takes no pivot and
  // converges in its first round.
  const std::size_t hits = allocator.solver_stats().warm_start_hits;
  const core::AllocationResult again = allocator.allocate(w, caps);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.lp_iterations, 0u);
  EXPECT_EQ(again.lazy_rounds, 1u);
  EXPECT_EQ(again.envy_rows_added, 0u);
  EXPECT_EQ(allocator.solver_stats().warm_start_hits, hits + 1);
  EXPECT_NEAR(again.total_efficiency, compacted.total_efficiency,
              1e-9 * (1.0 + compacted.total_efficiency));
}

TEST(FactoredBasis, CooperativeAllocateRefactorisesRarely) {
  // Regression guard for the update policy on a real Eq. 10 solve: one cold
  // cooperative allocate() at n = 150 on bench_scaling's instance shape.
  // With Forrest–Tomlin updates it refactorises about 18 times per 1,000
  // pivots, warm entries included; the product-form eta file it replaced,
  // rebuilt whenever its dense etas filled up, needed about 60.
  const std::size_t n = 150;
  const std::size_t k = 3;
  common::Rng rng(42);
  std::vector<std::vector<double>> rows(n);
  for (auto& row : rows) {
    row.resize(k);
    row[0] = 1.0;
    for (std::size_t j = 1; j < k; ++j) row[j] = row[j - 1] * rng.uniform(1.05, 2.0);
  }
  const core::AllocationResult result = core::make_cooperative_oef().allocate(
      core::SpeedupMatrix(std::move(rows)), {30.0, 40.0, 22.0});
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result.lp_iterations, 1000u);
  EXPECT_GE(result.refactorisations, result.lazy_rounds);  // one per warm entry at least
  const double per_thousand = 1000.0 * static_cast<double>(result.refactorisations) /
                              static_cast<double>(result.lp_iterations);
  EXPECT_LT(per_thousand, 30.0) << result.refactorisations << " refactorisations in "
                                << result.lp_iterations << " pivots";
}

TEST(FactoredBasis, SolverAgreesWithTableau) {
  common::Rng rng(246810);
  int optimal_seen = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t nvars = static_cast<std::size_t>(rng.uniform_int(2, 9));
    LpModel model(trial % 2 == 0 ? Sense::kMaximize : Sense::kMinimize);
    for (std::size_t v = 0; v < nvars; ++v) {
      const double lower = rng.uniform() < 0.3 ? rng.uniform(-2.0, 2.0) : 0.0;
      const double upper = rng.uniform() < 0.5 ? lower + rng.uniform(0.5, 8.0) : kInf;
      model.add_variable(lower, upper, rng.uniform(-3.0, 3.0));
    }
    const std::size_t nrows = static_cast<std::size_t>(rng.uniform_int(1, 7));
    for (std::size_t r = 0; r < nrows; ++r) {
      LinearExpr expr;
      for (std::size_t v = 0; v < nvars; ++v) {
        if (rng.uniform() < 0.7) expr.add(v, rng.uniform(-1.5, 2.0));
      }
      const double roll = rng.uniform();
      const Relation rel = roll < 0.6   ? Relation::kLessEqual
                           : roll < 0.9 ? Relation::kGreaterEqual
                                        : Relation::kEqual;
      model.add_constraint(std::move(expr), rel, rng.uniform(-3.0, 10.0));
    }

    LpSolver lu_solver;
    const LpSolution lu = lu_solver.solve(model);
    const LpSolution tableau = SimplexSolver().solve(model);
    ASSERT_EQ(lu.status, tableau.status) << "trial " << trial;
    if (!lu.optimal()) continue;
    ++optimal_seen;
    EXPECT_NEAR(lu.objective, tableau.objective,
                1e-5 * (1.0 + std::abs(tableau.objective)))
        << "trial " << trial;
    EXPECT_TRUE(model.is_feasible(lu.values, 1e-6)) << "trial " << trial;
  }
  EXPECT_GE(optimal_seen, 10);
}

}  // namespace
}  // namespace oef::solver

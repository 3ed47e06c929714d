// Factored (sparse LU + eta file) basis, checked against B itself.
//
// Every ftran/btran/btran_unit result is multiplied back by the basis matrix
// (B·ftran(b) = b, btran(c)ᵀ·B = cᵀ, btran_unit(p)ᵀ·B = e_pᵀ), which needs no
// second representation of B^-1: on a fresh factor, across eta-accumulating
// pivots, after a row append and refactor, across the refactor trigger, and
// for the renumbered basic set left by warm row deletion. On top of the unit-level checks, whole solves must reach
// the independent tableau's optimum, and the lazy-loop relaxation compaction
// must take the warm-deletion path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
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

/// One eta-accumulating pivot on a random nonbasic column with a comfortably
/// nonsingular pivot element, as lp_solver.cpp performs it (the basis
/// computes its own ftran column). Returns false when the drawn column has
/// no usable pivot.
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
  basis.pivot(leave, enter, w);
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

TEST(FactoredBasis, EtaUpdatesAndRowAppendsSolveAgainstB) {
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

    // Row append on top of the eta file, as add_rows() + resolve() perform
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

TEST(FactoredBasis, RefactorTriggerTracksEtaFileAndResetsIt) {
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

  // Accumulate etas until the trigger fires: by fill growth or, at the
  // latest, at the eta-file length cap.
  std::vector<char> in_basis(a.cols(), 0);
  for (const std::size_t j : basic) in_basis[j] = 1;
  std::size_t pivots = 0;
  for (int attempt = 0; attempt < 2000 && !basis.refactor_due(); ++attempt) {
    if (random_pivot(basis, a, in_basis, rng)) ++pivots;
  }
  ASSERT_TRUE(basis.refactor_due());
  EXPECT_GE(pivots, 1u);
  EXPECT_LE(pivots, Basis::kMaxEtas);
  EXPECT_EQ(basis.pivots_since_refactor(), pivots);

  // Refactorising only changes the representation: the new factor solves
  // against the same B, with an empty eta file.
  ASSERT_TRUE(basis.refactor(a));
  EXPECT_EQ(basis.pivots_since_refactor(), 0u);
  EXPECT_FALSE(basis.refactor_due());
  expect_residuals_vanish(basis, a, rng, "across refactor");
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

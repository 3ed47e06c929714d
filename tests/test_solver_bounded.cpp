// Bounded-variable revised simplex against the tableau reference.
//
// The revised engine handles finite variable upper bounds natively (nonbasic
// at-upper statuses and bound flips) while the tableau reference models them
// as synthetic rows — so agreement between the two on random upper-bounded
// LPs pins the bounded-variable machinery against an independent
// implementation, both on single LPs and through the cooperative OEF lazy
// loop.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "core/oef.h"
#include "core/speedup_matrix.h"
#include "solver/lp_model.h"
#include "solver/lp_solver.h"
#include "solver/simplex.h"
#include "solver/sparse_matrix.h"

namespace oef::solver {
namespace {

constexpr double kTol = 1e-6;

/// Random LP where a sizeable fraction of the variables carries a finite
/// upper bound (sometimes with a nonzero lower bound), all three relation
/// kinds appear, and both senses occur.
LpModel random_bounded_lp(common::Rng& rng, int trial) {
  const std::size_t nvars = static_cast<std::size_t>(rng.uniform_int(2, 9));
  LpModel model(trial % 2 == 0 ? Sense::kMaximize : Sense::kMinimize);
  for (std::size_t v = 0; v < nvars; ++v) {
    const double lower = rng.uniform() < 0.3 ? rng.uniform(-2.0, 2.0) : 0.0;
    const double upper =
        rng.uniform() < 0.6 ? lower + rng.uniform(0.5, 8.0) : kInf;
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
  return model;
}

TEST(SparseMatrix, BasicOperations) {
  SparseMatrix a;
  a.reset(3);
  ASSERT_EQ(a.add_column(), 0u);
  ASSERT_EQ(a.add_column(), 1u);
  a.add_entry(0, 0, 2.0);
  a.add_entry(0, 2, -1.0);
  a.add_entry(1, 1, 0.0);  // zeros are skipped
  a.add_entry(1, 1, 5.0);
  EXPECT_EQ(a.nonzeros(), 3u);

  ASSERT_EQ(a.column(0).size(), 2u);
  EXPECT_EQ(a.column(0)[1].row, 2u);
  EXPECT_DOUBLE_EQ(a.column(0)[1].value, -1.0);

  const std::vector<double> x = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(a.dot_column(0, x), 2.0 - 3.0);
  EXPECT_DOUBLE_EQ(a.dot_column(1, x), 10.0);

  std::vector<double> acc(3, 1.0);
  a.axpy_column(0, 2.0, acc);
  EXPECT_EQ(acc, (std::vector<double>{5.0, 1.0, -1.0}));

  a.set_rows(4);
  a.add_entry(1, 3, 7.0);
  EXPECT_EQ(a.rows(), 4u);
  EXPECT_EQ(a.nonzeros(), 4u);
}

/// Every column of vᵀA formed row-wise equals dot_column exactly.
void expect_row_wise_product_matches(const SparseMatrix& a, const std::vector<double>& v) {
  std::vector<double> product;
  a.transpose_product(v, product);
  ASSERT_EQ(product.size(), a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j) {
    EXPECT_EQ(product[j], a.dot_column(j, v)) << "column " << j;
  }
}

/// About 10% nonzero, with magnitudes spread over many orders (so summation
/// order shows in the low bits) and now and then a negative zero.
std::vector<double> random_rho(common::Rng& rng, std::size_t m) {
  std::vector<double> rho(m, 0.0);
  for (double& value : rho) {
    const double roll = rng.uniform();
    if (roll < 0.1) value = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-8.0, 4.0));
    if (roll > 0.99) value = -0.0;
  }
  return rho;
}

TEST(SparseMatrix, RowWiseProductMatchesDotColumnBitForBit) {
  common::Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(20, 90));
    const std::size_t cols = static_cast<std::size_t>(rng.uniform_int(20, 120));
    SparseMatrix a;
    a.reset(m);
    for (std::size_t j = 0; j < cols; ++j) a.add_column();
    std::vector<char> empty(cols);
    for (char& e : empty) e = rng.uniform() < 0.1 ? 1 : 0;
    // Row by row, as a load does, so every column stays row-sorted. Row 0 is
    // dense, like a capacity row.
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        if (!empty[j] && (i == 0 || rng.uniform() < 0.08)) {
          a.add_entry(j, i, rng.uniform(-3.0, 3.0) * std::pow(10.0, rng.uniform(-3.0, 3.0)));
        }
      }
    }
    a.index_rows();
    expect_row_wise_product_matches(a, random_rho(rng, a.rows()));

    // Rows appended one at a time, each with a fresh unit column, as
    // add_rows() does: the row-major copy grows in place.
    for (int appended = 0; appended < 6; ++appended) {
      const std::size_t row = a.rows();
      a.set_rows(row + 1);
      for (std::size_t j = 0; j < a.cols(); ++j) {
        if (rng.uniform() < 0.1) a.add_entry(j, row, rng.uniform(-2.0, 2.0));
      }
      a.add_entry(a.add_column(), row, 1.0);
      expect_row_wise_product_matches(a, random_rho(rng, a.rows()));
    }

    // The column-by-column rebuild of a warm row deletion.
    std::vector<std::size_t> row_remap(a.rows(), SIZE_MAX);
    std::size_t kept_rows = 0;
    for (std::size_t i = 0; i < a.rows(); ++i) {
      if (i == 0 || rng.uniform() < 0.75) row_remap[i] = kept_rows++;
    }
    SparseMatrix reduced;
    reduced.reset(kept_rows);
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const std::size_t nj = reduced.add_column();
      for (const SparseEntry& e : a.column(j)) {
        if (row_remap[e.row] != SIZE_MAX) reduced.add_entry(nj, row_remap[e.row], e.value);
      }
    }
    reduced.index_rows();
    expect_row_wise_product_matches(reduced, random_rho(rng, reduced.rows()));
  }
}

TEST(BoundedSimplex, KnownBoundFlipInstance) {
  // max 3x + 2y with x <= 1, y <= 2 and x + y <= 2.5: the optimum sits at
  // x = 1 (its upper bound — a nonbasic-at-upper column) and y = 1.5.
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable(0.0, 1.0, 3.0);
  const VarId y = model.add_variable(0.0, 2.0, 2.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0).add(y, 1.0), Relation::kLessEqual, 2.5);

  LpSolver solver;
  const LpSolution solution = solver.solve(model);
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.objective, 6.0, kTol);
  EXPECT_NEAR(solution.values[x], 1.0, kTol);
  EXPECT_NEAR(solution.values[y], 1.5, kTol);
}

TEST(BoundedSimplex, UnconstrainedBoundedVariablesRestAtPreferredBound) {
  // No rows at all: every negative-reduced-cost column must land on its
  // finite upper bound rather than reporting unbounded.
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable(0.0, 4.0, 2.0);
  const VarId y = model.add_variable(-1.0, 3.0, -5.0);
  LpSolver solver;
  const LpSolution solution = solver.solve(model);
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.values[x], 4.0, kTol);
  EXPECT_NEAR(solution.values[y], -1.0, kTol);
  EXPECT_NEAR(solution.objective, 13.0, kTol);
}

TEST(BoundedSimplex, MatchesTableauOnRandomUpperBoundedLps) {
  common::Rng rng(20240731);
  int optimal_seen = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const LpModel model = random_bounded_lp(rng, trial);

    LpSolver revised_solver;
    const LpSolution a = revised_solver.solve(model);
    const LpSolution b = SimplexSolver().solve(model);
    ASSERT_EQ(a.status, b.status) << "trial " << trial;
    if (a.optimal() && b.optimal()) {
      ++optimal_seen;
      EXPECT_NEAR(a.objective, b.objective, 1e-5 * (1.0 + std::abs(b.objective)))
          << "trial " << trial;
      EXPECT_TRUE(model.is_feasible(a.values, 1e-6)) << "trial " << trial;
    }
  }
  EXPECT_GE(optimal_seen, 15);  // the generator must produce real work
}

TEST(BoundedSimplex, WarmResolveWithUpperBoundsMatchesColdSolve) {
  // add_rows + resolve on a model whose variables carry finite bounds: the
  // dual ratio test must price both bound directions correctly.
  common::Rng rng(777);
  for (int trial = 0; trial < 10; ++trial) {
    LpModel model(Sense::kMaximize);
    const std::size_t nvars = static_cast<std::size_t>(rng.uniform_int(3, 7));
    for (std::size_t v = 0; v < nvars; ++v) {
      model.add_variable(0.0, rng.uniform(1.0, 6.0), rng.uniform(0.5, 3.0));
    }
    LinearExpr total;
    for (std::size_t v = 0; v < nvars; ++v) total.add(v, 1.0);
    model.add_constraint(std::move(total), Relation::kLessEqual,
                         rng.uniform(2.0, 2.0 + static_cast<double>(nvars)));

    LpSolver warm;
    const LpSolution relaxed = warm.solve(model);
    ASSERT_TRUE(relaxed.optimal()) << "trial " << trial;

    std::vector<Constraint> cuts;
    LinearExpr cut;
    for (std::size_t v = 0; v < nvars; ++v) cut.add(v, rng.uniform(0.5, 1.5));
    cuts.push_back(Constraint{std::move(cut), Relation::kLessEqual, rng.uniform(1.0, 3.0)});
    warm.add_rows(cuts);
    const LpSolution resolved = warm.resolve();
    ASSERT_TRUE(resolved.optimal()) << "trial " << trial;

    LpSolver cold;
    const LpSolution reference = cold.solve(warm.model());
    ASSERT_TRUE(reference.optimal()) << "trial " << trial;
    EXPECT_NEAR(resolved.objective, reference.objective,
                kTol * (1.0 + std::abs(reference.objective)))
        << "trial " << trial;
    EXPECT_TRUE(warm.model().is_feasible(resolved.values, 1e-6)) << "trial " << trial;
  }
}

TEST(BoundedSimplex, SameCountSuccessorsStartWarm) {
  // Two successors of one solved model with its variable and row counts,
  // each solved through the empty map from the first optimum: one whose
  // variable lost its finite upper bound (the recycled nonbasic-at-upper
  // status must be dropped, since resting at an infinite bound would poison
  // the basic values), and one whose row's rhs turned negative (the row
  // stays a <= row and keeps its basic slack, which now starts negative).
  // Both must start warm and verify against the tableau.
  const auto build = [](double x_upper, double split_rhs) {
    LpModel model(Sense::kMaximize);
    const VarId x = model.add_variable(0.0, x_upper, 3.0);
    const VarId y = model.add_variable(0.0, 2.0, 2.0);
    model.add_constraint(LinearExpr{}.add(x, 1.0).add(y, 1.0), Relation::kLessEqual, 2.5);
    model.add_constraint(LinearExpr{}.add(x, 1.0).add(y, -1.0), Relation::kLessEqual,
                         split_rhs);
    return model;
  };
  const LpModel first = build(1.0, 0.5);
  for (const LpModel& second : {build(kInf, 0.5), build(1.0, -1.0)}) {
    LpSolver solver;
    const LpSolution a = solver.solve(first);
    ASSERT_TRUE(a.optimal());
    EXPECT_NEAR(a.values[0], 1.0, kTol);  // x is nonbasic at its upper bound

    const LpSolution b = solver.solve(second);
    ASSERT_TRUE(b.optimal());
    EXPECT_TRUE(b.warm_started);
    const LpSolution reference = SimplexSolver().solve(second);
    ASSERT_TRUE(reference.optimal());
    EXPECT_NEAR(b.objective, reference.objective, kTol * (1.0 + std::abs(reference.objective)));
    EXPECT_TRUE(second.is_feasible(b.values, 1e-6));
  }
}

/// max 2y + x  s.t.  x + y <= 1, with y fixed in [0, 0]. y prices as the
/// better column, but a column of zero width cannot move, so the optimum
/// x = 1 is one pivot away.
LpModel zero_width_lp() {
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable(0.0, kInf, 1.0);
  const VarId y = model.add_variable(0.0, 0.0, 2.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0).add(y, 1.0), Relation::kLessEqual, 1.0);
  return model;
}

TEST(BoundedSimplex, ZeroWidthColumnNeverEntersColdSolve) {
  LpSolver solver;
  const LpSolution solution = solver.solve(zero_width_lp());
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.objective, 1.0, kTol);
  EXPECT_EQ(solver.stats().total_iterations, 1u);
  EXPECT_TRUE(solver.has_basis());
}

TEST(BoundedSimplex, ZeroWidthColumnNeverEntersWarmResolve) {
  LpSolver solver;
  ASSERT_TRUE(solver.solve(zero_width_lp()).optimal());
  // x <= 0.5 cuts the optimum off; one dual pivot moves x onto it.
  solver.add_rows({Constraint{LinearExpr{}.add(0, 1.0), Relation::kLessEqual, 0.5}});
  const LpSolution resolved = solver.resolve();
  ASSERT_TRUE(resolved.optimal());
  EXPECT_TRUE(resolved.warm_started);
  EXPECT_NEAR(resolved.objective, 0.5, kTol);
  EXPECT_EQ(solver.stats().total_iterations, 2u);
}

/// Solves `model` with the revised engine and the tableau reference and
/// requires matching status, matching objective and a feasible revised point.
void expect_matches_tableau(const LpModel& model, const char* label, int trial) {
  LpSolver solver;
  const LpSolution revised = solver.solve(model);
  const LpSolution reference = SimplexSolver().solve(model);
  ASSERT_EQ(revised.status, reference.status) << label << " trial " << trial;
  if (!revised.optimal()) return;
  EXPECT_NEAR(revised.objective, reference.objective,
              kTol * (1.0 + std::abs(reference.objective)))
      << label << " trial " << trial;
  EXPECT_TRUE(model.is_feasible(revised.values, 1e-6)) << label << " trial " << trial;
}

TEST(TableauReference, AgreesOnMixedRelationLps) {
  // The warm-start suite's mixed-relation generator: the revised engine and
  // the tableau reach the same status and objective.
  common::Rng rng(4711);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t nvars = static_cast<std::size_t>(rng.uniform_int(2, 8));
    LpModel model(trial % 2 == 0 ? Sense::kMaximize : Sense::kMinimize);
    for (std::size_t v = 0; v < nvars; ++v) {
      const double upper = rng.uniform() < 0.3 ? rng.uniform(1.0, 10.0) : kInf;
      model.add_variable(0.0, upper, rng.uniform(-2.0, 3.0));
    }
    const std::size_t nrows = static_cast<std::size_t>(rng.uniform_int(1, 6));
    for (std::size_t r = 0; r < nrows; ++r) {
      LinearExpr expr;
      for (std::size_t v = 0; v < nvars; ++v) {
        if (rng.uniform() < 0.7) expr.add(v, rng.uniform(-1.0, 2.0));
      }
      const double roll = rng.uniform();
      const Relation rel = roll < 0.6   ? Relation::kLessEqual
                           : roll < 0.9 ? Relation::kGreaterEqual
                                        : Relation::kEqual;
      model.add_constraint(std::move(expr), rel, rng.uniform(-2.0, 8.0));
    }
    expect_matches_tableau(model, "mixed-relation", trial);
  }
}

TEST(TableauReference, AgreesOnCooperativeOefInstances) {
  // End-to-end: the cooperative lazy loop on the revised engine (warm
  // resolves, compaction) returns the total efficiency the same loop reaches
  // with every LP handed to the tableau.
  common::Rng rng(9090);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(6, 14));
    const std::size_t k = static_cast<std::size_t>(rng.uniform_int(2, 4));
    std::vector<std::vector<double>> rows(n);
    for (auto& row : rows) {
      row.resize(k);
      row[0] = 1.0;
      for (std::size_t j = 1; j < k; ++j) row[j] = row[j - 1] * rng.uniform(1.05, 2.0);
    }
    const core::SpeedupMatrix w(std::move(rows));
    std::vector<double> caps(k);
    for (double& c : caps) c = static_cast<double>(rng.uniform_int(2, 9));

    const core::AllocationResult revised = core::make_cooperative_oef().allocate(w, caps);
    core::OefOptions tableau_options;
    tableau_options.solver.algorithm = LpAlgorithm::kTableau;
    const core::AllocationResult reference =
        core::make_cooperative_oef(tableau_options).allocate(w, caps);
    ASSERT_TRUE(revised.ok()) << "trial " << trial;
    ASSERT_TRUE(reference.ok()) << "trial " << trial;
    EXPECT_NEAR(revised.total_efficiency, reference.total_efficiency,
                kTol * (1.0 + reference.total_efficiency))
        << "trial " << trial;
    EXPECT_TRUE(revised.allocation.respects_capacity(caps, 1e-6)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace oef::solver

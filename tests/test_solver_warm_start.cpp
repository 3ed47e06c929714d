// Warm-start contract of the stateful LpSolver: resolve-after-add_rows must
// match a cold solve of the extended model (objective and point), cost fewer
// pivots, and survive degenerate/stalling instances via the Bland's-rule
// switch. Also covers basis reuse across solve() calls and the tableau
// reference mode.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "core/oef.h"
#include "core/speedup_matrix.h"
#include "solver/lp_model.h"
#include "solver/lp_solver.h"
#include "solver/simplex.h"

namespace oef::solver {
namespace {

constexpr double kTol = 1e-6;

/// Cooperative-OEF-shaped base model: n*k non-negative variables maximising
/// sum of speedup-weighted shares subject to per-type capacity rows.
LpModel oef_base_model(const core::SpeedupMatrix& w, const std::vector<double>& caps) {
  const std::size_t n = w.num_users();
  const std::size_t k = w.num_types();
  LpModel model(Sense::kMaximize);
  for (std::size_t l = 0; l < n; ++l) {
    for (std::size_t j = 0; j < k; ++j) {
      model.add_variable(0.0, kInf, w.at(l, j));
    }
  }
  for (std::size_t j = 0; j < k; ++j) {
    LinearExpr expr;
    for (std::size_t l = 0; l < n; ++l) expr.add(l * k + j, 1.0);
    model.add_constraint(std::move(expr), Relation::kLessEqual, caps[j]);
  }
  return model;
}

core::SpeedupMatrix random_matrix(common::Rng& rng, std::size_t n, std::size_t k) {
  std::vector<std::vector<double>> rows(n);
  for (auto& row : rows) {
    row.resize(k);
    row[0] = 1.0;
    for (std::size_t j = 1; j < k; ++j) row[j] = row[j - 1] * rng.uniform(1.0, 2.0);
  }
  return core::SpeedupMatrix(std::move(rows));
}

/// Envy row "l must not envy i" for multiplicity-1 users.
Constraint envy_row(const core::SpeedupMatrix& w, std::size_t l, std::size_t i) {
  const std::size_t k = w.num_types();
  LinearExpr expr;
  for (std::size_t j = 0; j < k; ++j) {
    expr.add(l * k + j, w.at(l, j));
    expr.add(i * k + j, -w.at(l, j));
  }
  return Constraint{std::move(expr), Relation::kGreaterEqual, 0.0};
}

/// All envy rows violated at `point` beyond 1e-7.
std::vector<Constraint> violated_envy_rows(const core::SpeedupMatrix& w,
                                           const std::vector<double>& point) {
  const std::size_t n = w.num_users();
  const std::size_t k = w.num_types();
  std::vector<Constraint> violated;
  for (std::size_t l = 0; l < n; ++l) {
    double own = 0.0;
    for (std::size_t j = 0; j < k; ++j) own += w.at(l, j) * point[l * k + j];
    for (std::size_t i = 0; i < n; ++i) {
      if (i == l) continue;
      double envied = 0.0;
      for (std::size_t j = 0; j < k; ++j) envied += w.at(l, j) * point[i * k + j];
      if (envied - own > 1e-7) violated.push_back(envy_row(w, l, i));
    }
  }
  return violated;
}

TEST(WarmStart, ResolveAfterAddRowsMatchesColdSolve) {
  // Randomised cooperative instances: warm resolve after adding the violated
  // envy rows must agree with a from-scratch solve of the extended model.
  common::Rng rng(2024);
  int warm_resolves_seen = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(3, 10));
    const std::size_t k = static_cast<std::size_t>(rng.uniform_int(2, 5));
    const core::SpeedupMatrix w = random_matrix(rng, n, k);
    std::vector<double> caps(k);
    for (double& c : caps) c = static_cast<double>(rng.uniform_int(1, 8));

    LpSolver warm;
    const LpModel base = oef_base_model(w, caps);
    LpSolution relaxed = warm.solve(base);
    ASSERT_TRUE(relaxed.optimal()) << "trial " << trial;

    const std::vector<Constraint> rows = violated_envy_rows(w, relaxed.values);
    if (rows.empty()) continue;  // relaxed optimum already envy-free
    warm.add_rows(rows);
    const LpSolution resolved = warm.resolve();
    ASSERT_TRUE(resolved.optimal()) << "trial " << trial;
    if (resolved.warm_started) ++warm_resolves_seen;

    LpSolver cold;
    const LpSolution reference = cold.solve(warm.model());
    ASSERT_TRUE(reference.optimal()) << "trial " << trial;
    EXPECT_NEAR(resolved.objective, reference.objective,
                kTol * (1.0 + std::abs(reference.objective)))
        << "trial " << trial;
    EXPECT_TRUE(warm.model().is_feasible(resolved.values, 1e-6)) << "trial " << trial;
  }
  // The dual-simplex warm path must be the common case, not a lucky fallback.
  EXPECT_GE(warm_resolves_seen, 6);
}

TEST(WarmStart, WarmResolveCostsFewerIterationsThanColdSolve) {
  // Acceptance check: on the same extended instance, the warm resolve's pivot
  // count must be below the cold two-phase solve's.
  common::Rng rng(77);
  const std::size_t n = 12;
  const std::size_t k = 5;
  const core::SpeedupMatrix w = random_matrix(rng, n, k);
  std::vector<double> caps(k);
  for (double& c : caps) c = static_cast<double>(rng.uniform_int(2, 8));

  LpSolver warm;
  const LpSolution relaxed = warm.solve(oef_base_model(w, caps));
  ASSERT_TRUE(relaxed.optimal());
  const std::vector<Constraint> rows = violated_envy_rows(w, relaxed.values);
  ASSERT_FALSE(rows.empty());
  warm.add_rows(rows);
  const LpSolution resolved = warm.resolve();
  ASSERT_TRUE(resolved.optimal());
  ASSERT_TRUE(resolved.warm_started);
  EXPECT_GT(resolved.dual_iterations, 0u);

  LpSolver cold;
  const LpSolution reference = cold.solve(warm.model());
  ASSERT_TRUE(reference.optimal());
  EXPECT_NEAR(resolved.objective, reference.objective,
              kTol * (1.0 + std::abs(reference.objective)));
  EXPECT_LT(resolved.iterations, reference.iterations);
}

TEST(WarmStart, BasisReuseAcrossSolvesOfSameShape) {
  // Round-over-round simulator pattern: same model shape, drifting
  // coefficients. The second solve must reuse the basis and still match a
  // cold reference.
  common::Rng rng(99);
  const std::size_t n = 8;
  const std::size_t k = 4;
  std::vector<double> caps(k, 6.0);
  const core::SpeedupMatrix w1 = random_matrix(rng, n, k);

  LpSolver solver;
  const LpSolution first = solver.solve(oef_base_model(w1, caps));
  ASSERT_TRUE(first.optimal());
  EXPECT_FALSE(first.warm_started);

  // Drift every speedup by a few percent (same shape, new coefficients).
  std::vector<std::vector<double>> rows2(n);
  for (std::size_t l = 0; l < n; ++l) {
    rows2[l].resize(k);
    for (std::size_t j = 0; j < k; ++j) rows2[l][j] = w1.at(l, j) * rng.uniform(0.97, 1.03);
  }
  const core::SpeedupMatrix w2(std::move(rows2));
  const LpModel second_model = oef_base_model(w2, caps);
  const LpSolution second = solver.solve(second_model);
  ASSERT_TRUE(second.optimal());
  EXPECT_TRUE(second.warm_started);
  EXPECT_EQ(solver.stats().warm_start_hits, 1u);

  const LpSolution reference = SimplexSolver().solve(second_model);
  ASSERT_TRUE(reference.optimal());
  EXPECT_NEAR(second.objective, reference.objective,
              kTol * (1.0 + std::abs(reference.objective)));
}

TEST(WarmStart, DegenerateStallingInstanceSwitchesToBland) {
  // Beale's classic cycling example plus a stack of redundant zero-rhs rows:
  // maximally degenerate. A stall_limit of 1 forces the Bland's-rule switch
  // on the first non-improving pivot; the solve must still terminate at the
  // known optimum, warm resolve included.
  SolverOptions options;
  options.stall_limit = 1;
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable(0.0, kInf, 10.0);
  const VarId y = model.add_variable(0.0, kInf, -57.0);
  const VarId z = model.add_variable(0.0, kInf, -9.0);
  const VarId u = model.add_variable(0.0, kInf, -24.0);
  model.add_constraint(LinearExpr{}.add(x, 0.5).add(y, -5.5).add(z, -2.5).add(u, 9.0),
                       Relation::kLessEqual, 0.0);
  model.add_constraint(LinearExpr{}.add(x, 0.5).add(y, -1.5).add(z, -0.5).add(u, 1.0),
                       Relation::kLessEqual, 0.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0), Relation::kLessEqual, 1.0);
  // Redundant zero-rhs rows deepening the degeneracy at the origin.
  for (int extra = 0; extra < 4; ++extra) {
    model.add_constraint(
        LinearExpr{}.add(x, 0.5).add(y, -5.5 - extra).add(z, -2.5).add(u, 9.0),
        Relation::kLessEqual, 0.0);
  }

  LpSolver solver(options);
  const LpSolution solution = solver.solve(model);
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.objective, 1.0, 1e-6);  // Beale's known optimum

  // Cut the optimum off with a degenerate-ish row and warm-resolve.
  std::vector<Constraint> cut;
  cut.push_back(Constraint{LinearExpr{}.add(x, 1.0).add(y, 1.0), Relation::kLessEqual, 0.5});
  solver.add_rows(cut);
  const LpSolution resolved = solver.resolve();
  ASSERT_TRUE(resolved.optimal());
  const LpSolution reference = SimplexSolver(options).solve(solver.model());
  ASSERT_TRUE(reference.optimal());
  EXPECT_NEAR(resolved.objective, reference.objective, 1e-6);
}

TEST(WarmStart, EqualityRowDegradesToColdResolve) {
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable(0.0, kInf, 1.0);
  const VarId y = model.add_variable(0.0, kInf, 1.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0).add(y, 1.0), Relation::kLessEqual, 10.0);

  LpSolver solver;
  ASSERT_TRUE(solver.solve(model).optimal());
  std::vector<Constraint> rows;
  rows.push_back(Constraint{LinearExpr{}.add(x, 1.0).add(y, -1.0), Relation::kEqual, 0.0});
  solver.add_rows(rows);
  const LpSolution resolved = solver.resolve();
  ASSERT_TRUE(resolved.optimal());
  EXPECT_FALSE(resolved.warm_started);
  EXPECT_NEAR(resolved.objective, 10.0, kTol);
  EXPECT_NEAR(resolved.values[x], 5.0, 1e-5);
}

TEST(WarmStart, TableauModeMatchesRevisedMode) {
  common::Rng rng(31337);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 7));
    const std::size_t k = static_cast<std::size_t>(rng.uniform_int(2, 4));
    const core::SpeedupMatrix w = random_matrix(rng, n, k);
    std::vector<double> caps(k);
    for (double& c : caps) c = static_cast<double>(rng.uniform_int(1, 6));
    const LpModel model = oef_base_model(w, caps);

    SolverOptions tableau;
    tableau.algorithm = LpAlgorithm::kTableau;
    LpSolver revised_solver;
    LpSolver tableau_solver(tableau);
    const LpSolution a = revised_solver.solve(model);
    const LpSolution b = tableau_solver.solve(model);
    ASSERT_TRUE(a.optimal());
    ASSERT_TRUE(b.optimal());
    EXPECT_NEAR(a.objective, b.objective, kTol * (1.0 + std::abs(b.objective)));
  }
}

TEST(WarmStart, RevisedMatchesTableauOnMixedRelationLps) {
  // General random LPs with all three relation kinds and bounds: the revised
  // engine must agree with the tableau reference on status and objective.
  common::Rng rng(4711);
  int optimal_seen = 0;
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

    LpSolver revised_solver;
    const LpSolution a = revised_solver.solve(model);
    const LpSolution b = SimplexSolver().solve(model);
    EXPECT_EQ(a.status, b.status) << "trial " << trial;
    if (a.optimal() && b.optimal()) {
      ++optimal_seen;
      EXPECT_NEAR(a.objective, b.objective, 1e-5 * (1.0 + std::abs(b.objective)))
          << "trial " << trial;
    }
  }
  EXPECT_GE(optimal_seen, 5);  // the generator must produce real work
}

TEST(WarmStart, CooperativeLazyLoopWarmStartsRoundTwoOnwards) {
  // End-to-end acceptance: the cooperative OEF lazy loop must resolve rounds
  // >= 2 via warm-started dual simplex and agree with the eager solve.
  common::Rng rng(5150);
  const core::SpeedupMatrix w = random_matrix(rng, 10, 4);
  const std::vector<double> caps = {3.0, 5.0, 2.0, 4.0};

  core::OefOptions lazy_opts;
  lazy_opts.lazy_envy_constraints = true;
  const core::AllocationResult lazy =
      core::make_cooperative_oef(lazy_opts).allocate(w, caps);
  ASSERT_TRUE(lazy.ok());
  ASSERT_GE(lazy.lazy_rounds, 2u);
  EXPECT_GE(lazy.warm_rounds, 1u);
  EXPECT_GT(lazy.warm_lp_iterations, 0u);
  // Every round past the first must go through the warm dual-simplex path.
  EXPECT_EQ(lazy.warm_rounds, lazy.lazy_rounds - 1);

  // Same lazy loop with cold re-solves every round (tableau reference): the
  // warm-started loop must spend fewer total pivots on the same instance.
  core::OefOptions cold_opts = lazy_opts;
  cold_opts.solver.algorithm = solver::LpAlgorithm::kTableau;
  const core::AllocationResult cold =
      core::make_cooperative_oef(cold_opts).allocate(w, caps);
  ASSERT_TRUE(cold.ok());
  EXPECT_LT(lazy.lp_iterations, cold.lp_iterations);
  EXPECT_NEAR(lazy.total_efficiency, cold.total_efficiency,
              1e-5 * (1.0 + cold.total_efficiency));

  core::OefOptions eager_opts;
  eager_opts.lazy_envy_constraints = false;
  const core::AllocationResult eager =
      core::make_cooperative_oef(eager_opts).allocate(w, caps);
  ASSERT_TRUE(eager.ok());
  EXPECT_NEAR(lazy.total_efficiency, eager.total_efficiency,
              1e-5 * (1.0 + eager.total_efficiency));
}

TEST(WarmStart, AllocatorRecyclesEnvyRowsAcrossCalls) {
  // Two successive allocate() calls with drifting speedups: the second call
  // should start from the recycled active envy rows and reuse the basis, so
  // its LP work drops while the solution still matches a fresh allocator's.
  common::Rng rng(8080);
  const std::size_t n = 8;
  const std::size_t k = 4;
  const core::SpeedupMatrix w1 = random_matrix(rng, n, k);
  std::vector<std::vector<double>> rows2(n);
  for (std::size_t l = 0; l < n; ++l) {
    rows2[l].resize(k);
    for (std::size_t j = 0; j < k; ++j) rows2[l][j] = w1.at(l, j) * rng.uniform(0.98, 1.02);
  }
  const core::SpeedupMatrix w2(std::move(rows2));
  const std::vector<double> caps = {4.0, 3.0, 5.0, 2.0};

  const core::OefAllocator persistent = core::make_cooperative_oef();
  const core::AllocationResult first = persistent.allocate(w1, caps);
  ASSERT_TRUE(first.ok());
  const std::size_t hits = persistent.solver_stats().warm_start_hits;
  const core::AllocationResult second = persistent.allocate(w2, caps);
  ASSERT_TRUE(second.ok());

  const core::AllocationResult reference = core::make_cooperative_oef().allocate(w2, caps);
  ASSERT_TRUE(reference.ok());
  EXPECT_NEAR(second.total_efficiency, reference.total_efficiency,
              1e-5 * (1.0 + reference.total_efficiency));
  // The recycled pool lets the second call converge in fewer lazy rounds than
  // a from-scratch allocator needs.
  EXPECT_LE(second.lazy_rounds, reference.lazy_rounds);

  // Round 1 reused the first call's basis (the drift leaves it a few pivots
  // to take) and every later round resolved warm, so every pivot of the
  // call is a warm one.
  ASSERT_EQ(persistent.solver_stats().warm_start_hits, hits + 1);
  ASSERT_EQ(second.warm_rounds + 1, second.lazy_rounds);
  EXPECT_EQ(second.cold_lp_iterations, 0u);
  EXPECT_EQ(second.warm_lp_iterations, second.lp_iterations);
}

}  // namespace
}  // namespace oef::solver

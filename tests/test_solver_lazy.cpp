#include "solver/lazy.h"

#include <gtest/gtest.h>

#include "solver/lp_model.h"
#include "solver/simplex.h"

namespace oef::solver {
namespace {

TEST(LazySolver, ConvergesToEagerSolution) {
  // max x + y s.t. x <= 10, y <= 10, with the "hidden" constraint x + y <= 8
  // supplied lazily.
  LpModel lazy_model(Sense::kMaximize);
  const VarId x = lazy_model.add_variable("x", 0.0, kInf, 1.0);
  const VarId y = lazy_model.add_variable("y", 0.0, kInf, 1.0);
  lazy_model.add_constraint(LinearExpr{}.add(x, 1.0), Relation::kLessEqual, 10.0);
  lazy_model.add_constraint(LinearExpr{}.add(y, 1.0), Relation::kLessEqual, 10.0);

  const auto oracle = [&](const std::vector<double>& point) {
    std::vector<Constraint> violated;
    if (point[x] + point[y] > 8.0 + 1e-9) {
      violated.push_back(
          Constraint{LinearExpr{}.add(x, 1.0).add(y, 1.0), Relation::kLessEqual, 8.0, "cut"});
    }
    return violated;
  };

  LpSolver solver;
  const LazySolveResult result = LazyConstraintSolver().solve(solver, lazy_model, oracle);
  ASSERT_TRUE(result.converged);
  ASSERT_TRUE(result.solution.optimal());
  EXPECT_NEAR(result.solution.objective, 8.0, 1e-7);
  EXPECT_EQ(result.rows_added, 1u);
  EXPECT_GE(result.rounds, 2u);
}

TEST(LazySolver, NoViolationsMeansOneRound) {
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable("x", 0.0, 5.0, 1.0);
  (void)x;
  const auto oracle = [](const std::vector<double>&) { return std::vector<Constraint>{}; };
  LpSolver solver;
  const LazySolveResult result = LazyConstraintSolver().solve(solver, model, oracle);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_EQ(result.rows_added, 0u);
}

TEST(LazySolver, RespectsRoundLimit) {
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable("x", 0.0, 100.0, 1.0);
  // A pathological oracle that keeps tightening by a vanishing amount and
  // never reports satisfaction.
  int round = 0;
  const auto oracle = [&](const std::vector<double>&) {
    ++round;
    std::vector<Constraint> violated;
    violated.push_back(Constraint{LinearExpr{}.add(x, 1.0), Relation::kLessEqual,
                                  100.0 - round * 0.001, "tighten"});
    return violated;
  };
  LpSolver solver;
  const LazySolveResult result =
      LazyConstraintSolver(/*max_rounds=*/5).solve(solver, model, oracle);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.rounds, 6u);  // loop exits after max_rounds+1 counter
  EXPECT_TRUE(result.solution.optimal());
}

TEST(LazySolver, PropagatesInfeasibility) {
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable("x", 0.0, kInf, 1.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0), Relation::kLessEqual, 1.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0), Relation::kGreaterEqual, 3.0);
  const auto oracle = [](const std::vector<double>&) { return std::vector<Constraint>{}; };
  LpSolver solver;
  const LazySolveResult result = LazyConstraintSolver().solve(solver, model, oracle);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.solution.status, SolveStatus::kInfeasible);
}

}  // namespace
}  // namespace oef::solver

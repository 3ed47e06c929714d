#include "solver/simplex.h"

#include <gtest/gtest.h>

#include <cmath>

#include "solver/lp_model.h"

namespace oef::solver {
namespace {

constexpr double kTol = 1e-7;

TEST(Simplex, TrivialSingleVariable) {
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable(0.0, kInf, 1.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0), Relation::kLessEqual, 5.0);
  const LpSolution solution = SimplexSolver().solve(model);
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.objective, 5.0, kTol);
  EXPECT_NEAR(solution.values[x], 5.0, kTol);
}

TEST(Simplex, ClassicTwoVariableMax) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> x=2, y=6, obj=36.
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable(0.0, kInf, 3.0);
  const VarId y = model.add_variable(0.0, kInf, 5.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0), Relation::kLessEqual, 4.0);
  model.add_constraint(LinearExpr{}.add(y, 2.0), Relation::kLessEqual, 12.0);
  model.add_constraint(LinearExpr{}.add(x, 3.0).add(y, 2.0), Relation::kLessEqual, 18.0);
  const LpSolution solution = SimplexSolver().solve(model);
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.objective, 36.0, kTol);
  EXPECT_NEAR(solution.values[x], 2.0, kTol);
  EXPECT_NEAR(solution.values[y], 6.0, kTol);
}

TEST(Simplex, MinimizationWithGreaterEqual) {
  // min 2x + 3y s.t. x + y >= 10, x >= 2 -> x=10 (cheaper), y=0? cost 20? No:
  // coefficient of x is 2 < 3, so x=10, y=0, but x >= 2 already satisfied.
  LpModel model(Sense::kMinimize);
  const VarId x = model.add_variable(0.0, kInf, 2.0);
  const VarId y = model.add_variable(0.0, kInf, 3.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0).add(y, 1.0), Relation::kGreaterEqual, 10.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0), Relation::kGreaterEqual, 2.0);
  const LpSolution solution = SimplexSolver().solve(model);
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.objective, 20.0, kTol);
  EXPECT_NEAR(solution.values[x], 10.0, kTol);
  EXPECT_NEAR(solution.values[y], 0.0, kTol);
}

TEST(Simplex, EqualityConstraint) {
  // max x + 2y s.t. x + y = 4, x - y <= 2 -> x=3,y=1 gives 5; but y as big as
  // possible: y=4,x=0 satisfies x-y=-4<=2, obj=8.
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable(0.0, kInf, 1.0);
  const VarId y = model.add_variable(0.0, kInf, 2.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0).add(y, 1.0), Relation::kEqual, 4.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0).add(y, -1.0), Relation::kLessEqual, 2.0);
  const LpSolution solution = SimplexSolver().solve(model);
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.objective, 8.0, kTol);
  EXPECT_NEAR(solution.values[x], 0.0, kTol);
  EXPECT_NEAR(solution.values[y], 4.0, kTol);
}

TEST(Simplex, DetectsInfeasible) {
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable(0.0, kInf, 1.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0), Relation::kLessEqual, 1.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0), Relation::kGreaterEqual, 2.0);
  const LpSolution solution = SimplexSolver().solve(model);
  EXPECT_EQ(solution.status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable(0.0, kInf, 1.0);
  const VarId y = model.add_variable(0.0, kInf, 0.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0).add(y, -1.0), Relation::kLessEqual, 1.0);
  const LpSolution solution = SimplexSolver().solve(model);
  EXPECT_EQ(solution.status, SolveStatus::kUnbounded);
}

TEST(Simplex, HandlesVariableUpperBounds) {
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable(0.0, 3.0, 1.0);
  const VarId y = model.add_variable(0.0, 10.0, 1.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0).add(y, 1.0), Relation::kLessEqual, 7.0);
  const LpSolution solution = SimplexSolver().solve(model);
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.objective, 7.0, kTol);
  EXPECT_LE(solution.values[x], 3.0 + kTol);
}

TEST(Simplex, HandlesNonzeroLowerBounds) {
  // min x + y with x >= 2, y >= 3, x + y >= 6 -> obj 6 (e.g. x=3,y=3 or x=2,y=4).
  LpModel model(Sense::kMinimize);
  const VarId x = model.add_variable(2.0, kInf, 1.0);
  const VarId y = model.add_variable(3.0, kInf, 1.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0).add(y, 1.0), Relation::kGreaterEqual, 6.0);
  const LpSolution solution = SimplexSolver().solve(model);
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.objective, 6.0, kTol);
  EXPECT_GE(solution.values[x], 2.0 - kTol);
  EXPECT_GE(solution.values[y], 3.0 - kTol);
}

TEST(Simplex, HandlesFreeVariables) {
  // max -|x - 3| style: min x' with free x: min x s.t. x >= -5 via constraint.
  // Use: min x (free) s.t. x >= -5 -> x = -5.
  LpModel model(Sense::kMinimize);
  const VarId x = model.add_variable(-kInf, kInf, 1.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0), Relation::kGreaterEqual, -5.0);
  const LpSolution solution = SimplexSolver().solve(model);
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.objective, -5.0, kTol);
  EXPECT_NEAR(solution.values[x], -5.0, kTol);
}

TEST(Simplex, NegativeRhsRowsAreNormalized) {
  // max x s.t. -x >= -4  (i.e. x <= 4).
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable(0.0, kInf, 1.0);
  model.add_constraint(LinearExpr{}.add(x, -1.0), Relation::kGreaterEqual, -4.0);
  const LpSolution solution = SimplexSolver().solve(model);
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.values[x], 4.0, kTol);
}

TEST(Simplex, DegenerateLpTerminates) {
  // Classic degenerate LP (multiple constraints through one vertex).
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable(0.0, kInf, 10.0);
  const VarId y = model.add_variable(0.0, kInf, -57.0);
  const VarId z = model.add_variable(0.0, kInf, -9.0);
  const VarId w = model.add_variable(0.0, kInf, -24.0);
  model.add_constraint(
      LinearExpr{}.add(x, 0.5).add(y, -5.5).add(z, -2.5).add(w, 9.0),
      Relation::kLessEqual, 0.0);
  model.add_constraint(
      LinearExpr{}.add(x, 0.5).add(y, -1.5).add(z, -0.5).add(w, 1.0),
      Relation::kLessEqual, 0.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0), Relation::kLessEqual, 1.0);
  const LpSolution solution = SimplexSolver().solve(model);
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.objective, 1.0, 1e-6);  // known optimum (Beale's example)
}

TEST(Simplex, RedundantEqualityRows) {
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable(0.0, kInf, 1.0);
  const VarId y = model.add_variable(0.0, kInf, 1.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0).add(y, 1.0), Relation::kEqual, 4.0);
  model.add_constraint(LinearExpr{}.add(x, 2.0).add(y, 2.0), Relation::kEqual, 8.0);
  const LpSolution solution = SimplexSolver().solve(model);
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.objective, 4.0, kTol);
}

TEST(Simplex, DualsOfCapacityConstraints) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
  // Known duals: y1 = 0, y2 = 3/2, y3 = 1.
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable(0.0, kInf, 3.0);
  const VarId y = model.add_variable(0.0, kInf, 5.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0), Relation::kLessEqual, 4.0);
  model.add_constraint(LinearExpr{}.add(y, 2.0), Relation::kLessEqual, 12.0);
  model.add_constraint(LinearExpr{}.add(x, 3.0).add(y, 2.0), Relation::kLessEqual, 18.0);
  const LpSolution solution = SimplexSolver().solve(model);
  ASSERT_TRUE(solution.optimal());
  ASSERT_EQ(solution.duals.size(), 3u);
  EXPECT_NEAR(solution.duals[0], 0.0, kTol);
  EXPECT_NEAR(solution.duals[1], 1.5, kTol);
  EXPECT_NEAR(solution.duals[2], 1.0, kTol);
}

TEST(Simplex, StrongDualityHolds) {
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable(0.0, kInf, 4.0);
  const VarId y = model.add_variable(0.0, kInf, 3.0);
  model.add_constraint(LinearExpr{}.add(x, 2.0).add(y, 1.0), Relation::kLessEqual, 10.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0).add(y, 3.0), Relation::kLessEqual, 15.0);
  const LpSolution solution = SimplexSolver().solve(model);
  ASSERT_TRUE(solution.optimal());
  const double dual_objective = solution.duals[0] * 10.0 + solution.duals[1] * 15.0;
  EXPECT_NEAR(solution.objective, dual_objective, 1e-6);
}

TEST(Simplex, ScalingOnAndOffAgree) {
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable(0.0, kInf, 1e-3);
  const VarId y = model.add_variable(0.0, kInf, 1e3);
  model.add_constraint(LinearExpr{}.add(x, 1e-4).add(y, 1e4), Relation::kLessEqual, 100.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0), Relation::kLessEqual, 1e6);

  SolverOptions scaled;
  scaled.enable_scaling = true;
  SolverOptions unscaled;
  unscaled.enable_scaling = false;
  const LpSolution a = SimplexSolver(scaled).solve(model);
  const LpSolution b = SimplexSolver(unscaled).solve(model);
  ASSERT_TRUE(a.optimal());
  ASSERT_TRUE(b.optimal());
  EXPECT_NEAR(a.objective, b.objective, 1e-4 * std::abs(a.objective));
}

TEST(Simplex, SolutionSatisfiesModelFeasibility) {
  LpModel model(Sense::kMaximize);
  for (int i = 0; i < 6; ++i) {
    model.add_variable(0.0, kInf, 1.0 + i * 0.3);
  }
  for (int c = 0; c < 4; ++c) {
    LinearExpr expr;
    for (int i = 0; i < 6; ++i) expr.add(static_cast<VarId>(i), ((i + c) % 3) + 1.0);
    model.add_constraint(std::move(expr), Relation::kLessEqual, 10.0 + c);
  }
  const LpSolution solution = SimplexSolver().solve(model);
  ASSERT_TRUE(solution.optimal());
  EXPECT_TRUE(model.is_feasible(solution.values));
}

TEST(Simplex, ZeroConstraintModel) {
  LpModel model(Sense::kMinimize);
  const VarId x = model.add_variable(0.0, kInf, 1.0);
  const LpSolution solution = SimplexSolver().solve(model);
  ASSERT_TRUE(solution.optimal());
  EXPECT_NEAR(solution.values[x], 0.0, kTol);
}

TEST(LpModel, FeasibilityChecker) {
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable(0.0, 2.0, 1.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0), Relation::kGreaterEqual, 1.0);
  EXPECT_TRUE(model.is_feasible({1.5}));
  EXPECT_FALSE(model.is_feasible({0.5}));   // violates >= 1
  EXPECT_FALSE(model.is_feasible({2.5}));   // violates upper bound
  EXPECT_FALSE(model.is_feasible({-0.5}));  // violates lower bound
}

}  // namespace
}  // namespace oef::solver

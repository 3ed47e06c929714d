// The optimality certificate (solver/certificate.h) and the revised
// engine's final verdict.
//
// The certificate reads only the model and a solution's values and duals; it
// must pass the optimum of a small LP in either sense and fail a wrong-sign
// dual, a feasible but suboptimal point and an infeasible point. A failed
// cold solve returns the revised engine's own status.
#include <gtest/gtest.h>

#include <vector>

#include "solver/certificate.h"
#include "solver/lp_model.h"
#include "solver/lp_solver.h"
#include "solver/simplex.h"

namespace oef::solver {
namespace {

constexpr double kTol = 1e-6;

/// max (or min of the negated objective) 3x + 2y  s.t.  x + y <= 4,
/// x + 3y <= 9, y >= 0.5, 0 <= x <= 3. The optimum x = 3, y = 1 is
/// nondegenerate: x + y <= 4 binds with dual 2 (-2 when minimising), x rests
/// at its upper bound with reduced cost 1, and the other rows are loose.
LpModel small_lp(Sense sense) {
  const double sign = sense == Sense::kMaximize ? 1.0 : -1.0;
  LpModel model(sense);
  const VarId x = model.add_variable(0.0, 3.0, 3.0 * sign);
  const VarId y = model.add_variable(0.0, kInf, 2.0 * sign);
  model.add_constraint(LinearExpr{}.add(x, 1.0).add(y, 1.0), Relation::kLessEqual, 4.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0).add(y, 3.0), Relation::kLessEqual, 9.0);
  model.add_constraint(LinearExpr{}.add(y, 1.0), Relation::kGreaterEqual, 0.5);
  return model;
}

TEST(Certificate, OptimumPassesInBothSenses) {
  for (const Sense sense : {Sense::kMaximize, Sense::kMinimize}) {
    const LpModel model = small_lp(sense);
    LpSolver solver;
    const LpSolution revised = solver.solve(model);
    ASSERT_TRUE(revised.optimal());
    EXPECT_NEAR(revised.values[0], 3.0, 1e-9);
    EXPECT_NEAR(revised.values[1], 1.0, 1e-9);
    const CertificateCheck check = check_certificate(model, revised.values, revised.duals);
    EXPECT_LE(check.primal_residual, 1e-9);
    EXPECT_LE(check.dual_residual, 1e-9);
    EXPECT_LE(check.relative_gap, 1e-9);
    EXPECT_TRUE(check.passes(kTol));
    EXPECT_EQ(solver.stats().certificate_failures, 0u);

    const LpSolution tableau = SimplexSolver().solve(model);
    ASSERT_TRUE(tableau.optimal());
    EXPECT_TRUE(check_certificate(model, tableau.values, tableau.duals).passes(kTol));
  }
}

TEST(Certificate, FailsWrongSignDualSuboptimalAndInfeasiblePoints) {
  const LpModel model = small_lp(Sense::kMaximize);
  const LpSolution optimum = LpSolver().solve(model);
  ASSERT_TRUE(optimum.optimal());
  ASSERT_NEAR(optimum.duals[0], 2.0, 1e-9);

  std::vector<double> flipped = optimum.duals;
  flipped[0] = -flipped[0];
  const CertificateCheck wrong_sign = check_certificate(model, optimum.values, flipped);
  EXPECT_GT(wrong_sign.dual_residual, kTol);
  EXPECT_FALSE(wrong_sign.passes(kTol));

  // Feasible, objective 1 against the optimum's 11: only the gap shows it.
  const CertificateCheck suboptimal = check_certificate(model, {0.0, 0.5}, optimum.duals);
  EXPECT_LE(suboptimal.primal_residual, kTol);
  EXPECT_LE(suboptimal.dual_residual, kTol);
  EXPECT_GT(suboptimal.relative_gap, kTol);
  EXPECT_FALSE(suboptimal.passes(kTol));

  // x + y = 5 breaks the first row by 1.
  const CertificateCheck infeasible = check_certificate(model, {3.0, 2.0}, optimum.duals);
  EXPECT_NEAR(infeasible.primal_residual, 1.0, 1e-12);
  EXPECT_FALSE(infeasible.passes(kTol));

  EXPECT_FALSE(check_certificate(model, {3.0}, optimum.duals).passes(kTol));
}

/// x >= 1 and x <= 0, plus `loose` sparse rows v_k + v_{k+1} <= 10 over
/// `loose` more columns: infeasible whatever the loose part's size.
LpModel infeasible_lp(std::size_t loose) {
  LpModel model(Sense::kMaximize);
  const VarId x = model.add_variable(0.0, kInf, 1.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0), Relation::kGreaterEqual, 1.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0), Relation::kLessEqual, 0.0);
  std::vector<VarId> v;
  for (std::size_t k = 0; k < loose; ++k) v.push_back(model.add_variable(0.0, kInf, 1.0));
  for (std::size_t k = 0; k < loose; ++k) {
    model.add_constraint(LinearExpr{}.add(v[k], 1.0).add(v[(k + 1) % loose], 1.0),
                         Relation::kLessEqual, 10.0);
  }
  return model;
}

TEST(RevisedVerdict, InfeasibleLpReturnsInfeasibleWithoutBasis) {
  LpSolver solver;
  EXPECT_EQ(solver.solve(infeasible_lp(3000)).status, SolveStatus::kInfeasible);
  EXPECT_FALSE(solver.has_basis());
}

}  // namespace
}  // namespace oef::solver

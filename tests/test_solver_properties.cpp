// Property-based validation of the simplex: random small LPs are solved both
// by the simplex and by brute-force vertex enumeration, and the optima must
// agree.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "solver/lp_model.h"
#include "solver/simplex.h"

namespace oef::solver {
namespace {

// Brute-force LP optimum for max c'x s.t. Ax <= b, x >= 0: enumerate all
// basic solutions (intersections of n constraint hyperplanes chosen among
// rows of [A; -I]), keep feasible ones, return the best objective. Suitable
// only for tiny instances.
std::optional<double> brute_force_max(const std::vector<std::vector<double>>& a,
                                      const std::vector<double>& b,
                                      const std::vector<double>& c) {
  const std::size_t n = c.size();
  // Build the full row set: m capacity rows plus n sign rows (-x_i <= 0).
  std::vector<std::vector<double>> rows = a;
  std::vector<double> rhs = b;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> row(n, 0.0);
    row[i] = -1.0;
    rows.push_back(row);
    rhs.push_back(0.0);
  }

  std::optional<double> best;
  // Enumerate all n-subsets of rows via simple recursion.
  const std::size_t total = rows.size();
  std::vector<std::size_t> idx(n);
  const auto solve_subset = [&](const std::vector<std::size_t>& subset) {
    // Gaussian elimination on the n x n system.
    std::vector<std::vector<double>> mat(n, std::vector<double>(n + 1, 0.0));
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t cidx = 0; cidx < n; ++cidx) mat[r][cidx] = rows[subset[r]][cidx];
      mat[r][n] = rhs[subset[r]];
    }
    for (std::size_t col = 0; col < n; ++col) {
      std::size_t pivot = col;
      for (std::size_t r = col; r < n; ++r) {
        if (std::abs(mat[r][col]) > std::abs(mat[pivot][col])) pivot = r;
      }
      if (std::abs(mat[pivot][col]) < 1e-9) return;  // singular subset
      std::swap(mat[col], mat[pivot]);
      for (std::size_t r = 0; r < n; ++r) {
        if (r == col) continue;
        const double f = mat[r][col] / mat[col][col];
        for (std::size_t cc = col; cc <= n; ++cc) mat[r][cc] -= f * mat[col][cc];
      }
    }
    std::vector<double> x(n);
    for (std::size_t r = 0; r < n; ++r) x[r] = mat[r][n] / mat[r][r];
    // Feasibility over all rows.
    for (std::size_t r = 0; r < total; ++r) {
      double lhs = 0.0;
      for (std::size_t cidx = 0; cidx < n; ++cidx) lhs += rows[r][cidx] * x[cidx];
      if (lhs > rhs[r] + 1e-7) return;
    }
    double obj = 0.0;
    for (std::size_t cidx = 0; cidx < n; ++cidx) obj += c[cidx] * x[cidx];
    if (!best.has_value() || obj > *best) best = obj;
  };

  const std::function<void(std::size_t, std::size_t)> recurse = [&](std::size_t start,
                                                                    std::size_t depth) {
    if (depth == n) {
      solve_subset(idx);
      return;
    }
    for (std::size_t r = start; r < total; ++r) {
      idx[depth] = r;
      recurse(r + 1, depth + 1);
    }
  };
  recurse(0, 0);
  return best;
}

TEST(SimplexProperty, MatchesBruteForceOnRandomLps) {
  common::Rng rng(2024);
  int solved = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 4));
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(2, 5));
    std::vector<std::vector<double>> a(m, std::vector<double>(n, 0.0));
    std::vector<double> b(m, 0.0);
    std::vector<double> c(n, 0.0);
    for (auto& row : a) {
      for (double& v : row) v = rng.uniform(0.0, 4.0);
    }
    for (double& v : b) v = rng.uniform(1.0, 10.0);
    for (double& v : c) v = rng.uniform(0.1, 5.0);

    LpModel model(Sense::kMaximize);
    for (std::size_t j = 0; j < n; ++j) model.add_variable(0.0, kInf, c[j]);
    bool bounded_rows = true;
    for (std::size_t i = 0; i < m; ++i) {
      LinearExpr expr;
      bool nonzero = false;
      for (std::size_t j = 0; j < n; ++j) {
        expr.add(j, a[i][j]);
        nonzero = nonzero || a[i][j] > 1e-9;
      }
      bounded_rows = bounded_rows && nonzero;
      model.add_constraint(std::move(expr), Relation::kLessEqual, b[i]);
    }
    if (!bounded_rows) continue;

    const LpSolution solution = SimplexSolver().solve(model);
    const std::optional<double> expected = brute_force_max(a, b, c);
    if (solution.status == SolveStatus::kUnbounded) {
      continue;  // brute force cannot certify unboundedness; skip
    }
    ASSERT_TRUE(solution.optimal()) << "trial " << trial;
    ASSERT_TRUE(expected.has_value()) << "trial " << trial;
    EXPECT_NEAR(solution.objective, *expected, 1e-5 * (1.0 + std::abs(*expected)))
        << "trial " << trial;
    EXPECT_TRUE(model.is_feasible(solution.values, 1e-6)) << "trial " << trial;
    ++solved;
  }
  EXPECT_GT(solved, 40);  // the generator should produce mostly solvable LPs
}

TEST(SimplexProperty, RandomEqualityLpsStayFeasible) {
  common::Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(3, 6));
    LpModel model(Sense::kMaximize);
    for (std::size_t j = 0; j < n; ++j) {
      model.add_variable(0.0, kInf, rng.uniform(0.5, 2.0));
    }
    // One equality through a known feasible point plus capacity rows, so the
    // instance is always feasible.
    std::vector<double> feasible_point(n);
    for (double& v : feasible_point) v = rng.uniform(0.0, 2.0);
    LinearExpr eq;
    double eq_rhs = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double coeff = rng.uniform(0.5, 1.5);
      eq.add(j, coeff);
      eq_rhs += coeff * feasible_point[j];
    }
    model.add_constraint(std::move(eq), Relation::kEqual, eq_rhs);
    LinearExpr cap;
    double cap_rhs = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      cap.add(j, 1.0);
      cap_rhs += feasible_point[j];
    }
    model.add_constraint(std::move(cap), Relation::kLessEqual, cap_rhs + 5.0);

    const LpSolution solution = SimplexSolver().solve(model);
    ASSERT_TRUE(solution.optimal()) << "trial " << trial;
    EXPECT_TRUE(model.is_feasible(solution.values, 1e-6)) << "trial " << trial;
    EXPECT_GE(solution.objective, model.objective_value(feasible_point) - 1e-6);
  }
}

}  // namespace
}  // namespace oef::solver

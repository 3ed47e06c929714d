#include "sched/gavel.h"

#include <numeric>

#include "common/check.h"
#include "solver/lp_model.h"
#include "solver/simplex.h"

namespace oef::sched {

namespace {

using solver::LinearExpr;
using solver::LpModel;
using solver::Relation;
using solver::Sense;
using solver::VarId;

}  // namespace

core::Allocation GavelScheduler::allocate(const core::SpeedupMatrix& speedups,
                                          const std::vector<double>& capacities,
                                          const std::vector<double>& weights) const {
  const std::size_t n = speedups.num_users();
  const std::size_t k = speedups.num_types();
  OEF_CHECK(capacities.size() == k);
  const std::vector<double> w = effective_weights(n, weights);
  const double total_weight = std::accumulate(w.begin(), w.end(), 0.0);

  // Isolated-share value of each user: their efficiency on a weight-
  // proportional slice of every type.
  std::vector<double> isolated(n, 0.0);
  for (std::size_t l = 0; l < n; ++l) {
    for (std::size_t j = 0; j < k; ++j) {
      isolated[l] += speedups.at(l, j) * capacities[j] * w[l] / total_weight;
    }
  }

  LpModel model(Sense::kMaximize);
  for (std::size_t l = 0; l < n; ++l) {
    for (std::size_t j = 0; j < k; ++j) model.add_variable(0.0, solver::kInf, 0.0);
  }
  const VarId t = model.add_variable(0.0, solver::kInf, 1.0);
  for (std::size_t j = 0; j < k; ++j) {
    LinearExpr cap;
    for (std::size_t l = 0; l < n; ++l) cap.add(l * k + j, 1.0);
    model.add_constraint(std::move(cap), Relation::kLessEqual, capacities[j]);
  }
  for (std::size_t l = 0; l < n; ++l) {
    LinearExpr expr;
    for (std::size_t j = 0; j < k; ++j) expr.add(l * k + j, speedups.at(l, j));
    expr.add(t, -isolated[l]);
    model.add_constraint(std::move(expr), Relation::kGreaterEqual, 0.0);
  }

  const solver::LpSolution solution = solver_.solve(model);
  OEF_CHECK_MSG(solution.optimal(), "Gavel LP must solve");

  core::Allocation allocation(n, k);
  for (std::size_t l = 0; l < n; ++l) {
    for (std::size_t j = 0; j < k; ++j) {
      allocation.at(l, j) = std::max(0.0, solution.values[l * k + j]);
    }
  }
  return allocation;
}

}  // namespace oef::sched

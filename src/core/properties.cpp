#include "core/properties.h"

#include <algorithm>

#include "common/check.h"
#include "solver/lp_model.h"

namespace oef::core {

EnvyReport check_envy_freeness(const SpeedupMatrix& speedups, const Allocation& allocation,
                               double tol) {
  OEF_CHECK(speedups.num_users() == allocation.num_users());
  EnvyReport report;
  const std::size_t n = speedups.num_users();
  for (std::size_t l = 0; l < n; ++l) {
    const double own = allocation.efficiency(l, speedups);
    for (std::size_t i = 0; i < n; ++i) {
      if (i == l) continue;
      const double envied = speedups.dot(l, allocation.row(i));
      const double gap = envied - own;
      if (gap > report.worst_violation) {
        report.worst_violation = gap;
        report.envious_user = l;
        report.envied_user = i;
      }
    }
  }
  report.envy_free = report.worst_violation <= tol;
  return report;
}

SharingIncentiveReport check_sharing_incentive(const SpeedupMatrix& speedups,
                                               const Allocation& allocation,
                                               const std::vector<double>& capacities,
                                               double tol) {
  OEF_CHECK(speedups.num_users() == allocation.num_users());
  OEF_CHECK(capacities.size() == speedups.num_types());
  SharingIncentiveReport report;
  const std::size_t n = speedups.num_users();
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t l = 0; l < n; ++l) {
    double fair_share_value = 0.0;
    for (std::size_t j = 0; j < speedups.num_types(); ++j) {
      fair_share_value += speedups.at(l, j) * capacities[j] * inv_n;
    }
    const double gap = fair_share_value - allocation.efficiency(l, speedups);
    if (gap > report.worst_violation) {
      report.worst_violation = gap;
      report.worst_user = l;
    }
  }
  report.sharing_incentive = report.worst_violation <= tol;
  return report;
}

namespace {

ParetoReport pareto_check_impl(const SpeedupMatrix& speedups, const Allocation& allocation,
                               const std::vector<double>& capacities, double tol,
                               bool restrict_to_envy_free) {
  OEF_CHECK(speedups.num_users() == allocation.num_users());
  const std::size_t n = speedups.num_users();
  const std::size_t k = speedups.num_types();

  solver::LpModel model(solver::Sense::kMaximize);
  for (std::size_t l = 0; l < n; ++l) {
    for (std::size_t j = 0; j < k; ++j) {
      model.add_variable(0.0, solver::kInf, speedups.at(l, j));
    }
  }
  for (std::size_t j = 0; j < k; ++j) {
    solver::LinearExpr expr;
    for (std::size_t l = 0; l < n; ++l) expr.add(l * k + j, 1.0);
    model.add_constraint(std::move(expr), solver::Relation::kLessEqual, capacities[j]);
  }
  for (std::size_t l = 0; l < n; ++l) {
    solver::LinearExpr expr;
    for (std::size_t j = 0; j < k; ++j) expr.add(l * k + j, speedups.at(l, j));
    model.add_constraint(std::move(expr), solver::Relation::kGreaterEqual,
                         allocation.efficiency(l, speedups));
  }
  if (restrict_to_envy_free) {
    for (std::size_t l = 0; l < n; ++l) {
      for (std::size_t i = 0; i < n; ++i) {
        if (i == l) continue;
        solver::LinearExpr expr;
        for (std::size_t j = 0; j < k; ++j) {
          expr.add(l * k + j, speedups.at(l, j));
          expr.add(i * k + j, -speedups.at(l, j));
        }
        model.add_constraint(std::move(expr), solver::Relation::kGreaterEqual, 0.0);
      }
    }
  }

  const solver::SimplexSolver lp;
  const solver::LpSolution solution = lp.solve(model);
  ParetoReport report;
  if (!solution.optimal()) {
    // The restricted polytope can be empty when the input allocation is not
    // envy-free; an infeasible check means no EF Pareto improvement exists.
    report.pareto_efficient = true;
    return report;
  }
  report.achievable_gain =
      std::max(0.0, solution.objective - allocation.total_efficiency(speedups));
  report.pareto_efficient = report.achievable_gain <= tol;
  return report;
}

}  // namespace

ParetoReport check_pareto_efficiency(const SpeedupMatrix& speedups,
                                     const Allocation& allocation,
                                     const std::vector<double>& capacities, double tol) {
  return pareto_check_impl(speedups, allocation, capacities, tol,
                           /*restrict_to_envy_free=*/false);
}

ParetoReport check_pareto_efficiency_within_envy_free(const SpeedupMatrix& speedups,
                                                      const Allocation& allocation,
                                                      const std::vector<double>& capacities,
                                                      double tol) {
  return pareto_check_impl(speedups, allocation, capacities, tol,
                           /*restrict_to_envy_free=*/true);
}

double max_total_efficiency(const SpeedupMatrix& speedups,
                            const std::vector<double>& capacities) {
  OEF_CHECK(capacities.size() == speedups.num_types());
  double total = 0.0;
  for (std::size_t j = 0; j < speedups.num_types(); ++j) {
    double best = 0.0;
    for (std::size_t l = 0; l < speedups.num_users(); ++l) {
      best = std::max(best, speedups.at(l, j));
    }
    total += best * capacities[j];
  }
  return total;
}

StrategyProofnessReport check_strategy_proofness(const SpeedupMatrix& speedups,
                                                 const std::vector<double>& capacities,
                                                 const AllocatorFn& allocator,
                                                 const AttackOptions& options) {
  StrategyProofnessReport report;
  common::Rng rng(options.seed);
  const std::size_t n = speedups.num_users();
  const std::size_t k = speedups.num_types();

  const Allocation honest = allocator(speedups, capacities);
  OEF_CHECK(honest.num_users() == n);

  for (std::size_t attacker = 0; attacker < n; ++attacker) {
    const double honest_eff = honest.efficiency(attacker, speedups);
    for (std::size_t attempt = 0; attempt < options.attempts_per_user; ++attempt) {
      // Misreport model of §2.3.1: every entry is exaggerated (never reduced),
      // with the slowest-type entry pinned at 1 by normalisation.
      std::vector<double> fake(k);
      fake[0] = 1.0;
      for (std::size_t j = 1; j < k; ++j) {
        fake[j] = speedups.at(attacker, j) * rng.uniform(1.0, options.max_exaggeration);
      }
      SpeedupMatrix lied = speedups;
      lied.set_row(attacker, fake);
      const Allocation outcome = allocator(lied, capacities);
      // The attacker's true benefit is evaluated with the true speedups.
      const double true_eff = speedups.dot(attacker, outcome.row(attacker));
      const double gain = true_eff - honest_eff;
      if (gain > report.worst_gain) {
        report.worst_gain = gain;
        report.worst_user = attacker;
        report.worst_misreport = fake;
      }
    }
  }
  report.strategy_proof = report.worst_gain <= options.tol;
  return report;
}

}  // namespace oef::core

#include "solver/lazy.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/clock.h"
#include "common/logging.h"

namespace oef::solver {

namespace {

/// Rows looser than this at the current optimum are dropped by compaction.
constexpr double kCompactionSlackTol = 1e-5;

/// Slack of `constraint` at `point` (>= 0 when satisfied); equality rows
/// report 0 so they are never considered loose.
double constraint_slack(const Constraint& constraint, const std::vector<double>& point) {
  const double lhs = constraint.expr.evaluate(point);
  switch (constraint.relation) {
    case Relation::kLessEqual: return constraint.rhs - lhs;
    case Relation::kGreaterEqual: return lhs - constraint.rhs;
    case Relation::kEqual: return 0.0;
  }
  return 0.0;
}

}  // namespace

LazySolveResult LazyConstraintSolver::solve(LpSolver& solver, LpModel model,
                                            const SeparationOracle& oracle) const {
  LazySolveResult result;
  for (result.rounds = 1; result.rounds <= max_rounds_; ++result.rounds) {
    // Anytime behaviour: once a relaxation optimum exists, an expired
    // deadline hands it back instead of separating further. Round 1 always
    // runs — without it there is nothing feasible to return at all.
    if (result.rounds > 1 && deadline_.expired()) {
      result.deadline_expired = true;
      --result.rounds;  // the aborted round never ran
      common::log_debug("lazy solver: deadline expired after " +
                        std::to_string(result.rounds) + " round(s); returning the " +
                        "last relaxation optimum");
      return result;
    }
    // Round 1 loads the model (possibly reusing the basis of a previous
    // same-shaped session); later rounds repair the basis incrementally —
    // or, when a refused compaction dropped it, solve the working model
    // cold.
    result.solution = result.rounds == 1 ? solver.solve(std::move(model)) : solver.resolve();
    if (!result.solution.optimal()) return result;

    std::vector<Constraint> violated = oracle(result.solution.values);
    if (violated.empty()) {
      result.converged = true;
      return result;
    }
    result.rows_added += violated.size();

    const LpModel& working = solver.model();
    if (compaction_ && max_rows_ > 0 &&
        working.num_constraints() + violated.size() > max_rows_) {
      // Shrink the relaxation: drop every row past the permanent prefix that
      // is loose at the current optimum. A loose row's slack is basic, so
      // the solver can excise the rows while the basic set, vertex and
      // duals survive — the new violations then append onto the warm basis
      // as usual. If the in-place excision is refused the solver drops its
      // warm identity and the next resolve() solves the shrunken model cold.
      // A permanent prefix longer than the model is caller misconfiguration
      // of enable_compaction — recoverable, so throw instead of aborting.
      OEF_REQUIRE_MSG(permanent_rows_ <= working.num_constraints(),
                      "compaction permanent_rows exceeds the working model");
      const auto& constraints = working.constraints();
      std::vector<std::size_t> drop;
      for (std::size_t c = permanent_rows_; c < constraints.size(); ++c) {
        if (constraint_slack(constraints[c], result.solution.values) > kCompactionSlackTol) {
          drop.push_back(c);
        }
      }
      if (!drop.empty()) {
        ++result.compactions;
        const bool warm = solver.delete_rows(drop);
        if (warm) ++result.warm_compactions;
        result.rows_dropped += drop.size();
        common::log_debug("lazy solver: round " + std::to_string(result.rounds) +
                          " compacted relaxation (" + (warm ? "warm" : "cold") +
                          "), dropped " + std::to_string(drop.size()) + " rows (" +
                          std::to_string(working.num_constraints()) + " remain)");
      }
    }

    solver.add_rows(violated);
    common::log_debug("lazy solver: round " + std::to_string(result.rounds) + " added " +
                      std::to_string(violated.size()) + " rows");
  }
  // Ran out of rounds; report the last relaxation's solution, not converged.
  return result;
}

}  // namespace oef::solver

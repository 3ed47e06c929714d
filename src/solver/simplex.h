// Two-phase primal simplex for dense linear programs.
//
// This is the repository's replacement for the cvxpy + ECOS stack the paper's
// prototype uses: all OEF and baseline allocators reduce to LPs solved here.
// The implementation is a full-tableau two-phase simplex with:
//   * general variable bounds (shift / split / upper-bound rows),
//   * Dantzig pricing with an automatic switch to Bland's rule on stalling,
//   * optional row/column equilibration scaling,
//   * redundant-row elimination after phase 1,
//   * dual values (shadow prices) for every constraint.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "solver/lp_model.h"

namespace oef::solver {

class FaultInjector;

enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

[[nodiscard]] std::string to_string(SolveStatus status);

/// Which pivoting engine an LpSolver runs. The revised path supports warm
/// starts (basis reuse across solves, add_rows + dual-simplex resolve); the
/// tableau path is the battle-tested single-shot reference.
enum class LpAlgorithm { kRevised, kTableau };

/// Solver knobs that callers actually vary. The pricing tolerance and the
/// pivot budget are fixed (standard_form.h: kPricingTol, iteration_cap).
struct SolverOptions {
  /// Consecutive non-improving pivots before switching to Bland's rule.
  std::size_t stall_limit = 128;
  /// Row/column max-equilibration before solving.
  bool enable_scaling = true;
  /// Engine selection for LpSolver (SimplexSolver is always the tableau).
  LpAlgorithm algorithm = LpAlgorithm::kRevised;
  /// Deterministic fault injection (see fault_injector.h) into the revised
  /// engine. Non-owning: the injector must outlive every solver carrying
  /// these options. nullptr (the default) disables injection entirely. The
  /// tableau reference never consults it.
  FaultInjector* fault_injector = nullptr;
};

struct LpSolution {
  SolveStatus status = SolveStatus::kIterationLimit;
  /// Objective in the model's own sense (maximisation objectives are not negated).
  double objective = 0.0;
  /// One value per model variable (VarId-indexed). Empty unless optimal.
  std::vector<double> values;
  /// Shadow price per constraint: d(objective)/d(rhs) at the optimum,
  /// in the model's sense. Empty unless optimal.
  std::vector<double> duals;
  std::size_t iterations = 0;
  /// Pivots spent in dual-simplex reoptimisation (warm resolves only).
  std::size_t dual_iterations = 0;
  /// True when this solution was reached from a prior basis (either a
  /// dual-simplex resolve after add_rows, or basis reuse across solve calls)
  /// instead of a cold two-phase solve.
  bool warm_started = false;

  [[nodiscard]] bool optimal() const { return status == SolveStatus::kOptimal; }
};

class SimplexSolver {
 public:
  explicit SimplexSolver(SolverOptions options = {});

  /// Solves the model. The model is not modified; the solution vector is
  /// indexed by VarId.
  [[nodiscard]] LpSolution solve(const LpModel& model) const;

 private:
  SolverOptions options_;
};

}  // namespace oef::solver

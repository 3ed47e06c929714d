// Lazy-constraint (row-generation) wrapper around the LP solvers.
//
// Cooperative OEF has n(n-1) envy-freeness rows; at n = 300 tenants that is
// ~90k constraints, of which only a handful are active at the optimum. The
// LazyConstraintSolver starts from a relaxed model, asks a caller-provided
// separation oracle for rows violated by the current optimum, adds them, and
// re-solves until the oracle is satisfied.
//
// Round 1 is a solve() (warm when the persistent solver holds a same-shaped
// basis); every later round is a resolve(): the violated rows are appended
// to the stateful LpSolver via add_rows() and the previous optimal basis is
// repaired with dual-simplex pivots instead of a cold two-phase re-solve.
// Whenever the solver holds no warm identity (tableau mode, a refused
// compaction, an equality row) resolve() itself solves cold, so with
// SolverOptions::algorithm == LpAlgorithm::kTableau every round is the
// original cold re-solve, which serves as the reference behaviour.
#pragma once

#include <functional>
#include <vector>

#include "common/clock.h"
#include "solver/lp_model.h"
#include "solver/lp_solver.h"
#include "solver/simplex.h"

namespace oef::solver {

/// Given the current optimal point (VarId-indexed), returns constraints that
/// the point violates; an empty result means the point is feasible for the
/// full (implicit) model.
using SeparationOracle =
    std::function<std::vector<Constraint>(const std::vector<double>& point)>;

/// Loop counters of one lazy session. The solver's own counters (pivots,
/// warm resolves, seconds) live in LpSolver::stats() alone.
struct LazySolveResult {
  LpSolution solution;
  /// Number of solve / separate rounds performed.
  std::size_t rounds = 0;
  /// Total rows added by the oracle across all rounds.
  std::size_t rows_added = 0;
  /// Rows dropped again by relaxation compaction (see enable_compaction).
  std::size_t rows_dropped = 0;
  /// Relaxation compactions performed, and how many of them kept the basis
  /// warm (rows excised in place via LpSolver::delete_rows) instead of
  /// forcing a cold solve of the shrunken model.
  std::size_t compactions = 0;
  std::size_t warm_compactions = 0;
  /// True when the final solution satisfies the oracle.
  bool converged = false;
  /// True when the loop stopped because the wall-clock deadline expired; the
  /// reported solution is the last relaxation's optimum (capacity-feasible,
  /// envy rows approximate), not converged.
  bool deadline_expired = false;
};

/// Configured by the caller per session: the round cap, optional
/// compaction and an optional deadline. Solver options live on the LpSolver
/// passed to solve(), and the solver's stats() carry its pivots, warm
/// resolves and seconds.
class LazyConstraintSolver {
 public:
  explicit LazyConstraintSolver(std::size_t max_rounds = 200) : max_rounds_(max_rounds) {}

  /// Enables relaxation compaction. Generated rows are transient: a row that
  /// cut off an early relaxed optimum is usually slack a few rounds later,
  /// yet it inflates the basis (and every per-pivot solver operation) for
  /// the rest of the session. With compaction on, whenever the working model
  /// would exceed `max_rows` constraints, every row past the first
  /// `permanent_rows` whose slack at the current optimum exceeds 1e-5
  /// (kCompactionSlackTol) is dropped. A loose row's slack is basic, so
  /// LpSolver::delete_rows can excise the rows while the basis and vertex
  /// survive — the loop continues with a warm dual-simplex resolve instead of
  /// a cold re-solve (which remains the fallback when the excision is
  /// refused).
  /// Dropped rows that become violated again are simply re-separated by the
  /// oracle.
  void enable_compaction(std::size_t permanent_rows, std::size_t max_rows) {
    permanent_rows_ = permanent_rows;
    max_rows_ = max_rows;
    compaction_ = true;
  }

  /// Absolute monotonic deadline (see common/clock.h). The caller fixes the
  /// instant — the daemon anchors it at request arrival, so queueing and
  /// coalescing delay draw down the same budget. Checked between rounds:
  /// once a first relaxation optimum exists, an expired deadline returns it
  /// immediately (deadline_expired set, converged false) instead of
  /// separating further — the anytime behaviour the scheduler's degradation
  /// ladder builds on.
  void set_deadline(common::Deadline deadline) { deadline_ = deadline; }

  /// Solves `model` through a caller-owned persistent solver, into which it
  /// is moved: the working model (generated rows appended, compacted rows
  /// removed) is solver.model(). The solver keeps its basis across calls, so
  /// a later session over a same-shaped model (the round-over-round case in
  /// the simulator) warm-starts too.
  [[nodiscard]] LazySolveResult solve(LpSolver& solver, LpModel model,
                                      const SeparationOracle& oracle) const;

 private:
  std::size_t max_rounds_;
  bool compaction_ = false;
  std::size_t permanent_rows_ = 0;
  std::size_t max_rows_ = 0;
  common::Deadline deadline_ = common::Deadline::none();
};

}  // namespace oef::solver

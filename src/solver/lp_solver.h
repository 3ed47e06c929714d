// Stateful LP solver with an incremental-resolve API.
//
// Where SimplexSolver is a single-shot full-tableau solve, LpSolver keeps the
// loaded model and a warm identity — the basic column set and the nonbasic
// at-upper statuses of the last optimum — alive between calls. Every warm
// call goes through one entry, which refactorises the installed basic set
// and reoptimises from it (primal pivots if it is primal-feasible, dual then
// primal pivots if it is dual-feasible, a cost-shifting dual phase 1
// otherwise). A cold solve reaches feasibility the same way: it starts from
// the all-slack basis, and the rows that start out of bounds go through the
// cost-shifting dual. Warm calls have two callers:
//
//   * solve() basis reuse: the previous identity is translated onto the new
//     model through an LpModelMap naming the previous variable and
//     constraint each new one continues. The default, empty map continues
//     every column and row at its own index (the round-over-round case in
//     the simulator, where only coefficients move). A caller whose model
//     changed shape (tenants arrived or left) passes the map, and unless it
//     is the identity the start crosses over from the previous vertex.
//   * add_rows() + resolve(): newly separated constraints (the lazy
//     envy-freeness rows of cooperative OEF) join the loaded problem with
//     basic slacks; the previous optimum stays dual-feasible, so typically a
//     handful of dual pivots replace a cold re-solve.
//
// import_warm_state() holds a checkpointed identity without loading
// anything; the next solve() translates it exactly as it would the previous
// call's identity, so the restored solver continues exactly like the
// exporting one.
//
// delete_rows() excises rows loose at the current optimum (their slacks
// basic) together with their slack columns while the basic set survives —
// which lets relaxation compaction shrink the working LP without a cold
// re-solve.
//
// The engine is a bounded-variable revised simplex on a sparse LU basis kept
// by Forrest–Tomlin updates (basis.h) — O(nnz) solves/updates, which carries
// the cooperative sweep to n ~ 1000. Reduced costs are kept across pivots
// and updated from the pivot row, which is formed row-wise from a row-major
// copy of the sparse constraint matrix (sparse_matrix.h). Finite variable
// upper bounds live in the basis as nonbasic-at-upper statuses and bound
// flips instead of synthetic rows, and entering/leaving choices use devex
// reference weights (Bland's rule on stalling).
// SolverOptions::algorithm == LpAlgorithm::kTableau degrades every call to
// the reference full-tableau SimplexSolver (no warm identity is ever held).
// The revised path keeps only optima whose certificate (certificate.h)
// passes; a warm call that reaches none solves cold, and a cold solve's
// verdict is final: an optimum that fails its certificate even after one
// reoptimisation from its own basis returns as kIterationLimit.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "solver/lp_model.h"
#include "solver/simplex.h"

namespace oef::solver {

/// A warm identity detached from its solver: what solve()'s basis reuse
/// translates, and nothing else. The shape is the structural column count
/// and the relation of every standard row (<= or =: inequalities are loaded
/// in <= form), which fix the row and column counts: the structural columns,
/// then one unit column per row. The identity is the basic column set and
/// the nonbasic at-upper flags, plus the structural columns' values at that
/// vertex (unscaled standard-form values, so one per variable for the
/// finite-bounded models a reshaping map accepts), which a reshaped solve()
/// starts from. Neither the model nor the factorisation is kept: the next
/// solve() loads its own model, and every warm call refactorises from the
/// basic set, so a restore is pivot-identical to the uninterrupted run.
/// Serialized by solver/checkpoint.h for the daemon's checkpoint.
struct LpWarmState {
  std::size_t structural_columns = 0;
  std::vector<Relation> relations;
  std::vector<std::size_t> basic;
  std::vector<char> at_upper;
  /// Empty, or one finite nonnegative value per structural column; an
  /// identity without values translates with no crossover.
  std::vector<double> values;
};

/// How a model continues the previous one, for solve(). Entry v of
/// `variables` is the index of the previous model's variable that the new
/// model's variable v continues, entry i of `constraints` the index of the
/// previous constraint that constraint i continues; kNew marks one with no
/// predecessor. Both empty is the identity over the previous identity's
/// standard columns and rows, which needs the new model to have the same
/// counts of both. The identity records standard-form columns, not
/// variables, so a non-empty map reads previous variable p as structural
/// column p: it holds for models whose every variable has a finite bound
/// (one standard column each), and a new model with a free variable solves
/// cold under one.
struct LpModelMap {
  static constexpr std::size_t kNew = static_cast<std::size_t>(-1);
  std::vector<std::size_t> variables;
  std::vector<std::size_t> constraints;

  [[nodiscard]] bool empty() const { return variables.empty() && constraints.empty(); }
};

/// Cumulative counters across the lifetime of one LpSolver.
struct LpSolverStats {
  /// Solves from scratch, from the all-slack basis (including fallbacks
  /// inside warm calls).
  std::size_t cold_solves = 0;
  /// add_rows() + resolve() calls completed by warm dual-simplex pivots.
  std::size_t warm_resolves = 0;
  /// solve() calls completed by reusing the previous basis.
  std::size_t warm_start_hits = 0;
  /// Deficient basis positions patched with unit columns during
  /// refactorisation (the singular-basis repair path; see Core::refactor).
  std::size_t basis_repairs = 0;
  /// Factorisations of the basis from scratch, one per Core::refactor call:
  /// every warm entry, a due refactor_due(), the dual's α/ftran retry and a
  /// warm row deletion (a call's repair attempts count once).
  std::size_t refactorisations = 0;
  /// Revised-simplex "optimal" results whose optimality certificate
  /// (certificate.h) failed. The first failure of a run is reoptimised from
  /// its own basis and checked again; a second one fails the run (a warm
  /// call then solves cold, a cold solve returns kIterationLimit).
  std::size_t certificate_failures = 0;
  /// Simplex pivots across all calls (primal + dual, all phases), failed
  /// warm attempts included.
  std::size_t total_iterations = 0;
  /// The pivots of solve() and resolve() calls that returned warm_started
  /// (the calls warm_start_hits and warm_resolves count); the rest of
  /// total_iterations is cold work.
  std::size_t warm_iterations = 0;
  /// Wall-clock seconds spent inside solve()/resolve().
  double solve_seconds = 0.0;
};

class LpSolver {
 public:
  explicit LpSolver(SolverOptions options = {});
  ~LpSolver();
  LpSolver(LpSolver&&) noexcept;
  LpSolver& operator=(LpSolver&&) noexcept;

  /// Loads `model` (moved in; a caller that keeps its model passes a copy)
  /// and solves it from the previous identity (the last optimum's, or an
  /// imported one), translated onto the new model through `map`. A non-empty
  /// map's sizes must equal the model's variable and constraint counts, else
  /// CheckError; an empty map is the identity over the previous standard
  /// columns and rows, and the solve runs cold when the model has other
  /// counts. A mapped column or row keeps its basic and at-upper status
  /// (none for a row that turned from an inequality into an equality or
  /// back), a new column starts nonbasic at zero, a new row starts on its
  /// slack (an equality on its artificial), and the set is brought to one
  /// basic column per row: uncovered rows' unit columns pad it in row order,
  /// surplus structural columns are demoted from the last basis position. A
  /// column basic in either identity, or whose bound is now infinite, rests
  /// at its lower bound. Unless the map is the identity, the start then
  /// keeps the previous vertex: mapped structural columns keep their values
  /// (new ones are zero), every nonbasic column left above its lower bound
  /// there (a demoted column, or the slack a departed column's row frees)
  /// starts at that value, and each moves to a bound or pivots in (a
  /// crossover) before the reoptimisation, which repairs a start that is
  /// singular or infeasible. A map entry past the previous identity, a
  /// repeated entry or a free variable under a non-empty map solves cold.
  [[nodiscard]] LpSolution solve(LpModel model, const LpModelMap& map = {});

  /// Appends constraints to the loaded model. Only valid after a solve().
  /// Inequality rows are staged for dual-simplex reoptimisation; an equality
  /// row drops the warm identity, so the next resolve() solves the extended
  /// model cold.
  void add_rows(const std::vector<Constraint>& rows);

  /// Reoptimises after add_rows()/delete_rows(): dual simplex from the
  /// previous optimal basis when a warm identity exists, cold solve of the
  /// loaded model otherwise. The returned solution has warm_started == true
  /// iff the warm path succeeded.
  [[nodiscard]] LpSolution resolve();

  /// Removes constraints (by model index) from the loaded model. When the
  /// solver holds an optimal basis and every removed row's unit column (its
  /// slack, or an equality's artificial) is basic — always true for rows
  /// strictly loose at the optimum, the relaxation-compaction case — the
  /// rows are excised in place: the basis, vertex and duals survive and the
  /// next resolve() stays warm. Returns true on that warm path; false means the basis was
  /// discarded and the next solve()/resolve() runs cold on the shrunken
  /// model. Only valid after a solve().
  bool delete_rows(const std::vector<std::size_t>& row_indices);

  /// True when the solver holds a warm identity on its loaded model to
  /// reoptimise from (the last optimum's basis, possibly extended by
  /// add_rows() or shrunk by delete_rows() since). An imported identity has
  /// no loaded model, so it does not count.
  [[nodiscard]] bool has_basis() const;

  /// Snapshot of the warm identity (see LpWarmState): the loaded one, else an
  /// imported one not yet consumed; nullopt when there is neither (nothing
  /// solved yet, tableau mode, or a prior failure).
  [[nodiscard]] std::optional<LpWarmState> export_warm_state() const;

  /// Holds a warm identity exported by export_warm_state(), possibly in
  /// another process, in place of this solver's own, for the next solve() to
  /// translate as it would its own (nothing is loaded, factorised or pivoted
  /// here). Returns false, holding no identity, in tableau mode or
  /// when the identity is not self-consistent; callers then degrade to a cold
  /// first solve, never to an error.
  bool import_warm_state(const LpWarmState& state);

  /// The currently loaded model, including rows appended via add_rows().
  [[nodiscard]] const LpModel& model() const { return model_; }

  [[nodiscard]] const SolverOptions& options() const { return options_; }
  [[nodiscard]] const LpSolverStats& stats() const { return stats_; }

 private:
  class Core;

  /// Cold-solves the currently loaded model_ (the tableau in tableau mode,
  /// else the revised simplex, whose verdict is final), updating stats. Does
  /// not attempt any warm start.
  [[nodiscard]] LpSolution solve_loaded_cold();

  /// Reoptimises `core` (a warm identity on the loaded model) and keeps it
  /// on a verified optimum, marking the solution warm_started; without a
  /// core, or when the warm run fails, falls back to solve_loaded_cold().
  [[nodiscard]] LpSolution reoptimize_or_cold(std::unique_ptr<Core> core, bool dual_feasible);

  /// Harvests `core`'s counters after a revised run that ended in `status`.
  /// On an optimum whose certificate passes, extracts it into `solution`,
  /// keeps `core` as the warm identity and returns true. An optimum that
  /// fails its certificate is reoptimised once from the same basic set and
  /// checked again; `solution.iterations` then counts both runs' pivots.
  bool keep_if_optimal(std::unique_ptr<Core> core, SolveStatus status, LpSolution& solution);

  SolverOptions options_;
  LpModel model_;
  /// The warm identity; null when there is none (nothing solved yet, tableau
  /// mode, a failed solve, an equality row appended).
  std::unique_ptr<Core> core_;
  /// An identity import_warm_state() holds for the next solve(); set only
  /// while core_ is null.
  std::optional<LpWarmState> imported_;
  LpSolverStats stats_;
};

}  // namespace oef::solver

// The OEF allocators (§4.2) — the paper's primary contribution.
//
// Non-cooperative OEF (Eq. 9) maximises overall efficiency subject to every
// (virtual) user attaining identical normalised throughput, which yields
// strategy-proofness (Thm 5.4). Cooperative OEF (Eq. 10) maximises overall
// efficiency subject to envy-freeness rows, which yields envy-freeness,
// sharing-incentive and optimal efficiency simultaneously (Thm 5.1). Both are
// Pareto-efficient (Thm 5.3) and assign only adjacent GPU types (Thm 5.2).
//
// Weighted OEF and multi-job-type support (§4.2.3–4.2.4) are expressed via
// per-row multiplicities: a row with multiplicity r behaves exactly like r
// replicated rows of the paper's construction (allocations of identical
// replicas can be symmetrised, so the replicas merge into one row whose
// efficiency is compared at 1/r scale). This supports fractional weights
// directly, where literal replication would need rationalisation.
#pragma once

#include <vector>

#include "common/clock.h"
#include "common/serial.h"
#include "core/allocation.h"
#include "core/speedup_matrix.h"
#include "solver/lp_solver.h"
#include "solver/simplex.h"

namespace oef::core {

/// Allocator knobs that callers vary. The separation oracle's thresholds are
/// fixed (oef.cpp: kEnvyTolerance, kReaddTolerance), and it emits the one
/// most-violated envy row per user per round — the policy that measured
/// fastest across the n = 40..300 sweep once the relaxation is seeded with
/// the adjacent-pair rows.
struct OefOptions {
  solver::SolverOptions solver;
  /// Cooperative mode: generate envy rows lazily (true) or all n(n-1)
  /// eagerly (false). Lazy is the default and is required at large n.
  bool lazy_envy_constraints = true;
  /// Cooperative lazy mode: relaxations solved before the loop gives up and
  /// serves the last one as kDegraded.
  std::size_t max_lazy_rounds = 200;
  /// Cooperative lazy mode: relaxation-compaction ceiling. Once the working
  /// LP holds more than this many envy rows, rows slack at the current
  /// optimum are dropped and the shrunken model re-solved. This is a safety
  /// ceiling against pathological row growth, not an aggressive limit — a
  /// tight budget makes the lazy loop thrash (dropped rows are genuinely
  /// re-violated and must be rediscovered). 0 = automatic (max(16n, 512));
  /// SIZE_MAX disables compaction entirely.
  std::size_t max_envy_rows_total = 0;
  /// Cooperative lazy mode: seed the relaxation with both envy rows of
  /// every user pair within distance 2 of each other in the dominance order
  /// (total scaled speedup) — every pair on a cold call, the pairs of
  /// arriving users on a warm one. The optimum's binding set
  /// concentrates on neighbouring users (the paper's adjacency structure),
  /// so this skips most lazy rounds that would otherwise rediscover those
  /// rows one violation at a time (n = 300: 46 rounds / 10.4k rows down to
  /// 30 rounds / 6.6k rows, and a cold sweep that completes in minutes).
  bool seed_adjacent_envy_rows = true;
  /// Absolute monotonic deadline for allocate() (none() disables it). The
  /// caller fixes the instant, so the daemon can anchor a request's budget
  /// at arrival and let queueing/coalescing delay draw it down. Cooperative
  /// lazy mode: when it expires mid-loop the call returns the last
  /// relaxation optimum (capacity-feasible, envy rows approximate) as a
  /// *degraded* result instead of running to convergence — the anytime
  /// contract a per-round scheduler needs.
  common::Deadline deadline = common::Deadline::none();
};

/// Outcome of one allocate() call, one level above the LP's SolveStatus:
/// whether the caller got an allocation it can serve, and of what quality.
enum class AllocationStatus {
  /// Default-constructed result; allocate() never ran (the old silent
  /// kIterationLimit default made this state indistinguishable from a real
  /// iteration-limit failure).
  kNotSolved,
  /// Converged, envy-free (cooperative) / equal-efficiency (non-cooperative)
  /// optimum.
  kOptimal,
  /// A capacity-feasible allocation was produced, but degraded: the lazy envy
  /// loop hit its round cap or the solve deadline before converging, so a few
  /// envy rows may be violated. Servable, and flagged.
  kDegraded,
  /// No usable allocation (LP infeasible/unbounded, or every rung of the
  /// degradation ladder failed). The allocation field is empty.
  kFailed,
};

[[nodiscard]] const char* to_string(AllocationStatus status);

struct AllocationResult {
  Allocation allocation;
  /// Servability of this result (see AllocationStatus). Starts at kNotSolved
  /// so an unpopulated result can never masquerade as a solver failure.
  AllocationStatus outcome = AllocationStatus::kNotSolved;
  /// Σ w_l · x_l at the optimum.
  double total_efficiency = 0.0;
  /// Simplex pivots across all LP solves of this call, failed warm attempts
  /// included (a delta of the solver's total_iterations, like every solver
  /// counter below).
  std::size_t lp_iterations = 0;
  /// Cooperative-lazy statistics (zero otherwise): relaxations solved, and
  /// envy rows emitted by the separation oracle (seeded rows not counted).
  std::size_t lazy_rounds = 0;
  std::size_t envy_rows_added = 0;
  /// Envy rows dropped again by relaxation compaction.
  std::size_t envy_rows_dropped = 0;
  /// Relaxation compactions, and how many kept the basis warm (rows excised
  /// in place instead of a cold reload of the shrunken model).
  std::size_t compactions = 0;
  std::size_t warm_compactions = 0;
  /// Lazy rounds >= 2 completed by a warm dual-simplex resolve, and the
  /// pivot split: warm pivots are those of solves and resolves that returned
  /// warm_started (a solve that reused the previous call's basis counts,
  /// round 1 included); every other pivot is cold.
  std::size_t warm_rounds = 0;
  std::size_t cold_lp_iterations = 0;
  std::size_t warm_lp_iterations = 0;
  /// Wall-clock seconds spent inside the LP solver.
  double solve_seconds = 0.0;
  /// Wall-clock seconds spent inside the envy separation oracle.
  double oracle_seconds = 0.0;
  /// Cooperative lazy mode: OefOptions::deadline expired and the last
  /// relaxation optimum was returned (outcome == kDegraded).
  bool deadline_expired = false;
  /// Both always 0 (no dense basis, no tableau fallback); kept for the
  /// benchmark's load generator.
  std::size_t dense_fallbacks = 0;
  std::size_t tableau_fallbacks = 0;
  /// Degradation-ladder counters for this call (deltas of the solver's
  /// cumulative stats): deficient basis positions repaired, and revised
  /// optima whose certificate failed.
  std::size_t basis_repairs = 0;
  std::size_t certificate_failures = 0;
  /// Basis factorisations from scratch during this call (a delta of
  /// LpSolverStats::refactorisations, warm entries included).
  std::size_t refactorisations = 0;

  /// True only for a converged optimum.
  [[nodiscard]] bool ok() const { return outcome == AllocationStatus::kOptimal; }
  /// True when the allocation can be handed out (optimal or degraded).
  [[nodiscard]] bool served() const {
    return outcome == AllocationStatus::kOptimal || outcome == AllocationStatus::kDegraded;
  }
};

/// OEF allocator. allocate() is logically const but reuses internal solver
/// state (the previous optimal basis and the recycled envy-row pool) across
/// calls to warm-start round-over-round solves, so concurrent allocate()
/// calls on one instance require external synchronisation.
class OefAllocator {
 public:
  enum class Mode { kNonCooperative, kCooperative };

  explicit OefAllocator(Mode mode, OefOptions options = {});

  [[nodiscard]] Mode mode() const { return mode_; }

  /// Per-call absolute deadline (see OefOptions::deadline). A serving layer
  /// sets this before each allocate() without reconstructing the allocator —
  /// reconstruction would discard the warm basis and envy pool.
  void set_deadline(common::Deadline deadline) { options_.deadline = deadline; }

  /// Cumulative LP-solver counters (cold solves, warm resolves, basis-reuse
  /// hits, pivots, seconds) across all allocate() calls on this instance.
  [[nodiscard]] const solver::LpSolverStats& solver_stats() const { return solver_.stats(); }

  /// Cumulative wall-clock seconds spent inside the envy separation oracle
  /// across all allocate() calls on this instance.
  [[nodiscard]] double oracle_seconds() const { return oracle_seconds_total_; }

  /// Checkpoint hook: serializes the allocator's warm identity — its mode
  /// tag, the previous call's id order, the recycled envy pool and the
  /// persistent solver's LpWarmState — so a fresh process can resume churn
  /// on warm paths. The next allocate() rebuilds its LP from its arguments
  /// and the pool, and maps it onto the saved identity through the id order,
  /// so no model is saved. Counters (solver stats, oracle seconds) are
  /// telemetry, not warm state, and are not saved.
  void save_warm_state(common::SerialWriter& out) const;

  /// Restores what save_warm_state() wrote. Returns true when the solver
  /// holds the restored identity, which the next allocate()'s first solve
  /// starts from exactly as the uninterrupted allocator would; false means
  /// that solve runs cold (a degraded restart, not an error). Throws
  /// common::CheckError with kCorruptData on a malformed record (a repeated
  /// id included) and kInvalidArgument when the checkpoint was taken under
  /// the other Mode.
  bool load_warm_state(common::SerialReader& in);

  /// Unweighted allocation: every user has multiplicity 1.
  [[nodiscard]] AllocationResult allocate(const SpeedupMatrix& speedups,
                                          const std::vector<double>& capacities) const;

  /// Weighted / multi-job-type allocation: row v behaves like
  /// multiplicities[v] replicated users (§4.2.3). Multiplicities must be
  /// finite and > 0.
  ///
  /// `user_ids` gives a distinct stable identity per row (size n; a repeated
  /// id throws CheckError); empty (the default) means ids 0..n-1, the row
  /// indices. Cooperative lazy mode keys its warm state by identity, so it
  /// survives churn: every pooled envy row between two surviving users is
  /// reseeded, and the previous call's basis is translated onto this call's
  /// LP by id, so a call where users arrived or departed starts warm too.
  [[nodiscard]] AllocationResult allocate_weighted(
      const SpeedupMatrix& speedups, const std::vector<double>& multiplicities,
      const std::vector<double>& capacities,
      const std::vector<std::size_t>& user_ids = {}) const;

 private:
  [[nodiscard]] AllocationResult solve_non_cooperative(
      const SpeedupMatrix& speedups, const std::vector<double>& multiplicities,
      const std::vector<double>& capacities) const;
  [[nodiscard]] AllocationResult solve_cooperative(
      const SpeedupMatrix& speedups, const std::vector<double>& multiplicities,
      const std::vector<double>& capacities,
      const std::vector<std::size_t>& user_ids) const;

  Mode mode_;
  OefOptions options_;
  /// Persistent solver for this allocator's mode: kept alive across
  /// allocate() calls so the lazy envy loop dual-simplex-resolves within a
  /// call and each call's first solve starts from the previous optimal
  /// basis (see solver/lp_solver.h).
  mutable solver::LpSolver solver_;
  /// The previous cooperative call's final relaxation, which the solver's
  /// warm identity belongs to, described by stable id (see
  /// allocate_weighted): `previous_ids_` is its id order (user
  /// previous_ids_[p] owns variables p·k..p·k+k−1), and `envy_pool_` its
  /// envy rows in row order (row k + q is pool entry q: envier must not envy
  /// envied). The next call reseeds every pooled row between surviving users
  /// and maps its LP onto that relaxation through them.
  struct PooledEnvyRow {
    std::size_t envier = 0;
    std::size_t envied = 0;
  };
  mutable std::vector<PooledEnvyRow> envy_pool_;
  mutable std::vector<std::size_t> previous_ids_;
  mutable double oracle_seconds_total_ = 0.0;
};

/// Convenience factories matching the paper's terminology.
[[nodiscard]] OefAllocator make_non_cooperative_oef(OefOptions options = {});
[[nodiscard]] OefAllocator make_cooperative_oef(OefOptions options = {});

}  // namespace oef::core

// Deterministic fault injection for the revised simplex.
//
// The degradation ladder (warm resolve → basis repair → the scheduler's
// last-feasible fallback) exists to survive numerical breakdown — but genuine
// breakdown only shows up at n ~ 1000, which makes the recovery code
// untestable at unit scale. A FaultInjector manufactures the breakdowns
// on demand, from a seeded stream so every run is reproducible:
//
//   * eta corruption — after a pivot, the U diagonal that the newest
//     Forrest–Tomlin update set is scaled by 1e3 (lp_solver.cpp's
//     kEtaCorruptionFactor), mimicking the accumulated update drift that
//     makes ftran/btran disagree with the true basis. The corrupted factor
//     stays consistent with itself until the next refactorisation, so the
//     optimality certificate of every kept optimum is what catches it; an
//     optimum that fails the certificate is first reoptimised from its own
//     basis, whose refactorisation drops the corrupted update.
//   * basis faults — at a refactorisation, one basic column is duplicated,
//     making the basis structurally singular. This drives the exact
//     deficiency-repair path (patching with unit columns) that real drift
//     exercises at scale.
//
// The injector is wired through SolverOptions::fault_injector (a non-owning
// pointer; the owner must outlive every solver using it) so simulations can
// share one seeded stream across all solver instances of a run.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/rng.h"

namespace oef::solver {

struct FaultInjectorConfig {
  std::uint64_t seed = 0x5eedULL;
  /// Per-pivot probability of corrupting the newest basis update.
  double eta_corruption_rate = 0.0;
  /// Per-refactorisation probability of duplicating a basic column.
  double basis_fault_rate = 0.0;
};

struct FaultInjectorStats {
  /// Faults actually landed (counted by the solver, not by the rolls).
  std::size_t eta_corruptions = 0;
  std::size_t basis_faults = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultInjectorConfig config = {});

  /// True when this pivot should corrupt the newest basis update. Advances
  /// the stream.
  [[nodiscard]] bool roll_eta_corruption();
  /// True when this refactorisation should duplicate a basic column.
  [[nodiscard]] bool roll_basis_fault();

  /// Record a fault that actually landed.
  void note_eta_corruption() { ++stats_.eta_corruptions; }
  void note_basis_fault() { ++stats_.basis_faults; }

  [[nodiscard]] const FaultInjectorStats& stats() const { return stats_; }
  [[nodiscard]] const FaultInjectorConfig& config() const { return config_; }

 private:
  FaultInjectorConfig config_;
  FaultInjectorStats stats_;
  common::Rng rng_;
};

}  // namespace oef::solver

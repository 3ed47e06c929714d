#include "core/oef.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "solver/checkpoint.h"
#include "solver/lp_model.h"

namespace oef::core {

namespace {

using solver::Constraint;
using solver::LinearExpr;
using solver::LpModel;
using solver::Relation;
using solver::Sense;
using solver::VarId;

/// Envy separation: a pair whose envy gap exceeds kEnvyTolerance is violated.
/// A pair whose row the model already carries is satisfied only to the
/// solver's feasibility tolerance, so it is re-emitted only past the looser
/// kReaddTolerance; otherwise its echo would append duplicate rows forever.
constexpr double kEnvyTolerance = 1e-7;
constexpr double kReaddTolerance = 1e-6;
/// Compaction drops the envy rows looser than this at the current optimum.
constexpr double kCompactionSlackTol = 1e-5;

/// Variable id of x[user][type] given k types.
[[nodiscard]] constexpr VarId var_of(std::size_t user, std::size_t type, std::size_t k) {
  return user * k + type;
}

/// Adds all x variables (objective = speedup) and capacity rows.
void build_base_model(LpModel& model, const SpeedupMatrix& w,
                      const std::vector<double>& capacities) {
  const std::size_t n = w.num_users();
  const std::size_t k = w.num_types();
  OEF_CHECK(capacities.size() == k);
  for (std::size_t l = 0; l < n; ++l) {
    for (std::size_t j = 0; j < k; ++j) {
      model.add_variable(/*lower=*/0.0, solver::kInf, /*objective=*/w.at(l, j));
    }
  }
  for (std::size_t j = 0; j < k; ++j) {
    LinearExpr expr;
    for (std::size_t l = 0; l < n; ++l) expr.add(var_of(l, j, k), 1.0);
    model.add_constraint(std::move(expr), Relation::kLessEqual, capacities[j]);
  }
}

[[nodiscard]] Allocation extract_allocation(const std::vector<double>& values, std::size_t n,
                                            std::size_t k) {
  Allocation allocation(n, k);
  for (std::size_t l = 0; l < n; ++l) {
    for (std::size_t j = 0; j < k; ++j) {
      // Clamp solver roundoff so downstream capacity checks stay clean.
      allocation.at(l, j) = std::max(0.0, values[var_of(l, j, k)]);
    }
  }
  return allocation;
}

/// Solves `model` in one piece through `solver` and reports the outcome.
[[nodiscard]] AllocationResult solve_whole(solver::LpSolver& solver, LpModel model,
                                           const SpeedupMatrix& speedups) {
  const solver::LpSolution solution = solver.solve(std::move(model));
  AllocationResult result;
  if (!solution.optimal()) {
    result.outcome = AllocationStatus::kFailed;
    return result;
  }
  result.outcome = AllocationStatus::kOptimal;
  result.allocation =
      extract_allocation(solution.values, speedups.num_users(), speedups.num_types());
  result.total_efficiency = result.allocation.total_efficiency(speedups);
  return result;
}

/// Scaled efficiency of user l at point `values`: w_l · x_l / r_l.
[[nodiscard]] double scaled_efficiency(const SpeedupMatrix& w,
                                       const std::vector<double>& multiplicities,
                                       const std::vector<double>& values, std::size_t l) {
  const std::size_t k = w.num_types();
  double eff = 0.0;
  for (std::size_t j = 0; j < k; ++j) eff += w.at(l, j) * values[var_of(l, j, k)];
  return eff / multiplicities[l];
}

/// Efficiency user l would obtain from user i's bundle at `values`, at 1/r_i
/// scale: w_l · x_i / r_i.
[[nodiscard]] double envied_efficiency(const SpeedupMatrix& w,
                                       const std::vector<double>& multiplicities,
                                       const std::vector<double>& values, std::size_t l,
                                       std::size_t i) {
  const std::size_t k = w.num_types();
  double eff = 0.0;
  for (std::size_t j = 0; j < k; ++j) eff += w.at(l, j) * values[var_of(i, j, k)];
  return eff / multiplicities[i];
}

/// Envy row: w_l·x_l / r_l  −  w_l·x_i / r_i  ≥ 0.
[[nodiscard]] Constraint envy_row(const SpeedupMatrix& w,
                                  const std::vector<double>& multiplicities, std::size_t l,
                                  std::size_t i) {
  const std::size_t k = w.num_types();
  LinearExpr expr;
  for (std::size_t j = 0; j < k; ++j) {
    expr.add(var_of(l, j, k), w.at(l, j) / multiplicities[l]);
    expr.add(var_of(i, j, k), -w.at(l, j) / multiplicities[i]);
  }
  return Constraint{std::move(expr), Relation::kGreaterEqual, 0.0};
}

}  // namespace

const char* to_string(AllocationStatus status) {
  switch (status) {
    case AllocationStatus::kNotSolved: return "not_solved";
    case AllocationStatus::kOptimal: return "optimal";
    case AllocationStatus::kDegraded: return "degraded";
    case AllocationStatus::kFailed: return "failed";
  }
  return "unknown";
}

OefAllocator::OefAllocator(Mode mode, OefOptions options)
    : mode_(mode), options_(options), solver_(options.solver) {}

AllocationResult OefAllocator::allocate(const SpeedupMatrix& speedups,
                                        const std::vector<double>& capacities) const {
  return allocate_weighted(speedups, std::vector<double>(speedups.num_users(), 1.0),
                           capacities);
}

AllocationResult OefAllocator::allocate_weighted(
    const SpeedupMatrix& speedups, const std::vector<double>& multiplicities,
    const std::vector<double>& capacities,
    const std::vector<std::size_t>& user_ids) const {
  // Module boundary: malformed inputs here come from the caller (scheduler /
  // simulator feeding per-round data), so they throw CheckError rather than
  // aborting — a robust scheduler catches and degrades (see check.h policy).
  OEF_REQUIRE_MSG(multiplicities.size() == speedups.num_users(),
                  "multiplicities must match the speedup matrix's user count");
  for (const double r : multiplicities) {
    OEF_REQUIRE_MSG(std::isfinite(r) && r > 0.0, "multiplicity must be finite and > 0");
  }
  OEF_REQUIRE_MSG(capacities.size() == speedups.num_types(),
                  "capacities must match the speedup matrix's type count");
  OEF_REQUIRE_MSG(user_ids.empty() || user_ids.size() == speedups.num_users(),
                  "user_ids must be empty or match the user count");
  OEF_REQUIRE_MSG(common::all_distinct(user_ids), "user_ids must be distinct");
  // Every LP this call solves goes through solver_, so its pivots, seconds
  // and ladder counters are the deltas of the solver's cumulative stats.
  const solver::LpSolverStats before = solver_.stats();
  AllocationResult result =
      mode_ == Mode::kNonCooperative
          ? solve_non_cooperative(speedups, multiplicities, capacities)
          : solve_cooperative(speedups, multiplicities, capacities, user_ids);
  const solver::LpSolverStats& after = solver_.stats();
  result.lp_iterations = after.total_iterations - before.total_iterations;
  result.warm_lp_iterations = after.warm_iterations - before.warm_iterations;
  result.cold_lp_iterations = result.lp_iterations - result.warm_lp_iterations;
  result.warm_rounds = after.warm_resolves - before.warm_resolves;
  result.solve_seconds = after.solve_seconds - before.solve_seconds;
  result.basis_repairs = after.basis_repairs - before.basis_repairs;
  result.certificate_failures = after.certificate_failures - before.certificate_failures;
  return result;
}

AllocationResult OefAllocator::solve_non_cooperative(
    const SpeedupMatrix& speedups, const std::vector<double>& multiplicities,
    const std::vector<double>& capacities) const {
  const std::size_t n = speedups.num_users();
  const std::size_t k = speedups.num_types();

  LpModel model(Sense::kMaximize);
  build_base_model(model, speedups, capacities);
  // Equal scaled efficiency across all (virtual) users, Eq. (9c).
  for (std::size_t l = 1; l < n; ++l) {
    LinearExpr expr;
    for (std::size_t j = 0; j < k; ++j) {
      expr.add(var_of(l, j, k), speedups.at(l, j) / multiplicities[l]);
      expr.add(var_of(0, j, k), -speedups.at(0, j) / multiplicities[0]);
    }
    model.add_constraint(std::move(expr), Relation::kEqual, 0.0);
  }

  // Persistent solver: across simulator rounds with a stable user population
  // the model shape repeats, so the previous optimal basis warm-starts this
  // solve (equal-efficiency rows only move in their coefficients).
  return solve_whole(solver_, std::move(model), speedups);
}

AllocationResult OefAllocator::solve_cooperative(
    const SpeedupMatrix& speedups, const std::vector<double>& multiplicities,
    const std::vector<double>& capacities,
    const std::vector<std::size_t>& user_ids) const {
  const std::size_t n = speedups.num_users();
  const std::size_t k = speedups.num_types();

  LpModel model(Sense::kMaximize);
  build_base_model(model, speedups, capacities);

  if (!options_.lazy_envy_constraints) {
    for (std::size_t l = 0; l < n; ++l) {
      for (std::size_t i = 0; i < n; ++i) {
        if (i != l) model.add_constraint(envy_row(speedups, multiplicities, l, i));
      }
    }
    // Same persistent solver as the lazy path: stats accumulate, the
    // configured algorithm applies, and repeat calls of the same shape
    // warm-start.
    return solve_whole(solver_, std::move(model), speedups);
  }

  // Recycle the previous call's final envy rows into the initial relaxation:
  // across simulator rounds the active set barely moves, so the first solve
  // usually satisfies the oracle outright. `added` marks every pair
  // materialised as a row this call: it deduplicates the seeds and stops the
  // oracle from re-emitting a row the solver already carries. `envy_pairs`
  // is the working model's envy-row set: entry r is the (envier, envied)
  // pair of model row base_rows + r.
  const std::size_t base_rows = model.num_constraints();
  std::vector<char> added(n * n, 0);
  std::vector<std::pair<std::size_t, std::size_t>> envy_pairs;
  const auto seed_pair = [&](std::size_t l, std::size_t i) {
    if (l == i || added[l * n + i]) return false;
    added[l * n + i] = 1;
    envy_pairs.emplace_back(l, i);
    model.add_constraint(envy_row(speedups, multiplicities, l, i));
    return true;
  };
  // The pool and the id order store stable ids, the row index standing in
  // for an id the caller did not give. `map` names, per variable and row of
  // this call's model, what it continues in the previous call's final
  // relaxation, whose identity the solver holds: a surviving user's columns,
  // the capacity rows, and each pooled pair whose endpoints both survived
  // (reseeded in pool order); departed users' columns and rows are gone, and
  // an arrival's are new. The solver translates that identity onto this
  // model, so churn starts warm, and an unchanged user set maps every column
  // and row onto itself, which is plain basis reuse.
  const auto id_of = [&](std::size_t l) { return user_ids.empty() ? l : user_ids[l]; };
  solver::LpModelMap map;
  // Users with no columns in the previous relaxation: every user of a cold
  // call, the arrivals of a warm one.
  std::vector<char> arrived(n, 1);
  std::unordered_map<std::size_t, std::size_t> index_of_id;
  index_of_id.reserve(n);
  for (std::size_t l = 0; l < n; ++l) index_of_id.emplace(id_of(l), l);
  map.variables.assign(n * k, solver::LpModelMap::kNew);
  for (std::size_t p = 0; p < previous_ids_.size(); ++p) {
    const auto it = index_of_id.find(previous_ids_[p]);
    if (it == index_of_id.end()) continue;
    arrived[it->second] = 0;
    for (std::size_t j = 0; j < k; ++j) map.variables[var_of(it->second, j, k)] = var_of(p, j, k);
  }
  for (std::size_t j = 0; j < base_rows; ++j) map.constraints.push_back(j);
  for (std::size_t q = 0; q < envy_pool_.size(); ++q) {
    const auto a = index_of_id.find(envy_pool_[q].envier);
    const auto b = index_of_id.find(envy_pool_[q].envied);
    if (a != index_of_id.end() && b != index_of_id.end() && seed_pair(a->second, b->second)) {
      map.constraints.push_back(base_rows + q);
    }
  }
  const bool cold = envy_pairs.empty();
  if (options_.seed_adjacent_envy_rows &&
      (cold || std::find(arrived.begin(), arrived.end(), 1) != arrived.end())) {
    // At the optimum envy binds densely between users adjacent in the
    // dominance order (Thm 5.2's adjacency structure), so seeding both
    // directions of every pair within distance 2 (~4n rows on a cold start)
    // skips most of the lazy journey that would otherwise rediscover them
    // one round at a time. Depth 2 measured best: depth 1 leaves too much
    // for the oracle, depth 3's larger initial LP costs more than it saves.
    // A warm call seeds only the pairs of its arrivals: without them an
    // arrival's bundle is unconstrained in round 1, so nearly every user
    // envies it and the oracle adds ~n rows.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::vector<double> strength(n, 0.0);
    for (std::size_t l = 0; l < n; ++l) {
      for (std::size_t j = 0; j < k; ++j) strength[l] += speedups.at(l, j);
      strength[l] /= multiplicities[l];
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (strength[a] != strength[b]) return strength[a] < strength[b];
      return a < b;
    });
    for (std::size_t r = 0; r + 1 < n; ++r) {
      for (std::size_t d = 1; d <= 2 && r + d < n; ++d) {
        if (!cold && !arrived[order[r]] && !arrived[order[r + d]]) continue;
        seed_pair(order[r], order[r + d]);
        seed_pair(order[r + d], order[r]);
      }
    }
  }
  map.constraints.resize(model.num_constraints(), solver::LpModelMap::kNew);

  // Lazy row generation, one round per relaxation optimum. Round 1 loads the
  // model (starting from the previous call's basis through `map`); later
  // rounds reoptimise from the extended or compacted basis, or solve the
  // working model cold after a refused compaction. Each round's separation
  // scan emits, for every user in index order, the envy row of the pair it
  // envies most (the first such pair on exact ties). Pairs whose row was
  // dropped again by compaction are re-emitted once the violation is genuine
  // (past kReaddTolerance). User l's scan reads only its own pairs' `added`
  // marks, so marking its row straight away cannot affect a later user.
  const std::size_t envy_budget = options_.max_envy_rows_total != 0
                                      ? options_.max_envy_rows_total
                                      : std::max<std::size_t>(16 * n, 512);
  // Excises the envy rows loose at `point` from the working model. A loose
  // row's slack is basic, so the solver drops the rows while the basic set,
  // vertex and duals survive; a refused excision leaves the next resolve()
  // to solve the shrunken model cold. Returns the rows dropped and whether
  // the basis survived.
  const auto excise_loose_rows = [&](const std::vector<double>& point) {
    const std::vector<Constraint>& rows = solver_.model().constraints();
    std::vector<std::size_t> drop;
    std::size_t kept = 0;
    for (std::size_t r = 0; r < envy_pairs.size(); ++r) {
      const Constraint& row = rows[base_rows + r];
      if (row.expr.evaluate(point) - row.rhs > kCompactionSlackTol) {
        drop.push_back(base_rows + r);
      } else {
        envy_pairs[kept++] = envy_pairs[r];
      }
    }
    envy_pairs.resize(kept);
    const bool warm = drop.empty() || solver_.delete_rows(drop);
    return std::make_pair(drop.size(), warm);
  };
  AllocationResult result;
  solver::LpSolution solution;
  bool converged = false;
  for (std::size_t round = 1; round <= options_.max_lazy_rounds; ++round) {
    // Anytime behaviour: once a relaxation optimum exists, an expired
    // deadline hands it back instead of separating further. Round 1 always
    // runs — without it there is nothing feasible to return at all.
    if (round > 1 && options_.deadline.expired()) {
      result.deadline_expired = true;
      break;
    }
    solution = round == 1 ? solver_.solve(std::move(model), map) : solver_.resolve();
    result.lazy_rounds = round;
    if (!solution.optimal()) break;

    const double oracle_start = common::monotonic_seconds();
    const std::vector<double>& point = solution.values;
    std::vector<Constraint> violated;
    std::vector<std::pair<std::size_t, std::size_t>> violated_pairs;
    for (std::size_t l = 0; l < n; ++l) {
      const double own = scaled_efficiency(speedups, multiplicities, point, l);
      std::size_t worst = SIZE_MAX;  // the most-envied user, if any envy is violated
      double worst_gap = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (i == l) continue;
        const double gap = envied_efficiency(speedups, multiplicities, point, l, i) - own;
        const double threshold = added[l * n + i] ? kReaddTolerance : kEnvyTolerance;
        if (gap > threshold && (worst == SIZE_MAX || gap > worst_gap)) {
          worst = i;
          worst_gap = gap;
        }
      }
      if (worst == SIZE_MAX) continue;
      violated.push_back(envy_row(speedups, multiplicities, l, worst));
      violated_pairs.emplace_back(l, worst);
      added[l * n + worst] = 1;
    }
    result.oracle_seconds += common::monotonic_seconds() - oracle_start;
    if (violated.empty()) {
      converged = true;
      break;
    }
    result.envy_rows_added += violated.size();

    if (envy_pairs.size() + violated.size() > envy_budget) {
      // Compaction: a row that cut off an early relaxed optimum is usually
      // loose a few rounds later, yet it inflates every per-pivot operation
      // for the rest of the call. Drop every envy row loose at the current
      // optimum; the new violations append onto the warm basis as usual.
      const auto [dropped, warm] = excise_loose_rows(point);
      if (dropped != 0) {
        ++result.compactions;
        if (warm) ++result.warm_compactions;
        result.envy_rows_dropped += dropped;
      }
    }
    solver_.add_rows(violated);
    envy_pairs.insert(envy_pairs.end(), violated_pairs.begin(), violated_pairs.end());
  }
  oracle_seconds_total_ += result.oracle_seconds;
  if (!solution.optimal()) {
    // Every rung of the degradation ladder failed on some relaxation — there
    // is no feasible point to hand out at all.
    result.outcome = AllocationStatus::kFailed;
    return result;
  }
  // The round cap or the deadline may have stopped the loop at a relaxation
  // optimum: capacity-feasible (the capacity rows are permanent), some envy
  // rows possibly violated. It is served, flagged as degraded.
  result.outcome = converged ? AllocationStatus::kOptimal : AllocationStatus::kDegraded;
  result.allocation = extract_allocation(solution.values, n, k);
  result.total_efficiency = result.allocation.total_efficiency(speedups);

  // Refresh the id order and the recycled pool from the final model, whose
  // identity the solver holds: its users in row order and its envy rows in
  // row order, keyed by stable id. A converged call first excises the rows
  // loose at its optimum, so the pool is the binding set. Loose rows would
  // otherwise pile up (a cold call at n ≈ 120 ends with ~1,500 envy rows,
  // two thirds of them loose) and every later call pays for them: with
  // them, a round without churn in the simulator cost ~20% more.
  if (converged) (void)excise_loose_rows(solution.values);
  previous_ids_.resize(n);
  for (std::size_t l = 0; l < n; ++l) previous_ids_[l] = id_of(l);
  envy_pool_.clear();
  for (const auto& [l, i] : envy_pairs) envy_pool_.push_back({id_of(l), id_of(i)});
  return result;
}

void OefAllocator::save_warm_state(common::SerialWriter& out) const {
  out.u64(mode_ == Mode::kCooperative ? 1 : 0);
  out.size_vec(previous_ids_);
  out.u64(envy_pool_.size());
  for (const PooledEnvyRow& row : envy_pool_) {
    out.u64(row.envier);
    out.u64(row.envied);
  }
  solver::write_warm_state(out, solver_);
}

bool OefAllocator::load_warm_state(common::SerialReader& in) {
  const std::uint64_t mode_tag = in.u64();
  OEF_REQUIRE_CODE(mode_tag <= 1, common::ErrorCode::kCorruptData,
                   "bad allocator mode tag");
  OEF_REQUIRE_CODE((mode_tag == 1) == (mode_ == Mode::kCooperative),
                   common::ErrorCode::kInvalidArgument,
                   "checkpoint was taken under the other allocator mode");
  previous_ids_ = in.size_vec();
  OEF_REQUIRE_CODE(common::all_distinct(previous_ids_), common::ErrorCode::kCorruptData,
                   "repeated id in the allocator's id order");
  const std::uint64_t pool_size = in.count();
  envy_pool_.clear();
  for (std::uint64_t i = 0; i < pool_size; ++i) {
    PooledEnvyRow row;
    row.envier = static_cast<std::size_t>(in.u64());
    row.envied = static_cast<std::size_t>(in.u64());
    envy_pool_.push_back(row);
  }
  return solver::read_warm_state(in, solver_);
}

OefAllocator make_non_cooperative_oef(OefOptions options) {
  return OefAllocator(OefAllocator::Mode::kNonCooperative, options);
}

OefAllocator make_cooperative_oef(OefOptions options) {
  return OefAllocator(OefAllocator::Mode::kCooperative, options);
}

}  // namespace oef::core

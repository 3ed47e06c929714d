// Checkpoint contract of the solver layer: a warm identity serialized
// mid-session and imported into a fresh solver is held, not loaded, until
// the next solve() of a same-shape model installs it; from there the
// restored solver continues *pivot-identically* — it performs the same
// pivots and lands on the bit-identical vertex as the uninterrupted one.
// Corrupt streams must surface as CheckError(kCorruptData), never as
// silently wrong state.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/serial.h"
#include "core/oef.h"
#include "core/speedup_matrix.h"
#include "solver/checkpoint.h"
#include "solver/lp_model.h"
#include "solver/lp_solver.h"
#include "solver/simplex.h"

namespace oef::solver {
namespace {

LpModel oef_base_model(const core::SpeedupMatrix& w, const std::vector<double>& caps) {
  const std::size_t n = w.num_users();
  const std::size_t k = w.num_types();
  LpModel model(Sense::kMaximize);
  for (std::size_t l = 0; l < n; ++l) {
    for (std::size_t j = 0; j < k; ++j) model.add_variable(0.0, kInf, w.at(l, j));
  }
  for (std::size_t j = 0; j < k; ++j) {
    LinearExpr expr;
    for (std::size_t l = 0; l < n; ++l) expr.add(l * k + j, 1.0);
    model.add_constraint(std::move(expr), Relation::kLessEqual, caps[j]);
  }
  return model;
}

core::SpeedupMatrix random_matrix(common::Rng& rng, std::size_t n, std::size_t k) {
  std::vector<std::vector<double>> rows(n);
  for (auto& row : rows) {
    row.resize(k);
    row[0] = 1.0;
    for (std::size_t j = 1; j < k; ++j) row[j] = row[j - 1] * rng.uniform(1.0, 2.0);
  }
  return core::SpeedupMatrix(std::move(rows));
}

Constraint envy_row(const core::SpeedupMatrix& w, std::size_t l, std::size_t i) {
  const std::size_t k = w.num_types();
  LinearExpr expr;
  for (std::size_t j = 0; j < k; ++j) {
    expr.add(l * k + j, w.at(l, j));
    expr.add(i * k + j, -w.at(l, j));
  }
  return Constraint{std::move(expr), Relation::kGreaterEqual, 0.0};
}

std::vector<Constraint> violated_envy_rows(const core::SpeedupMatrix& w,
                                           const std::vector<double>& point) {
  const std::size_t n = w.num_users();
  const std::size_t k = w.num_types();
  std::vector<Constraint> violated;
  for (std::size_t l = 0; l < n; ++l) {
    double own = 0.0;
    for (std::size_t j = 0; j < k; ++j) own += w.at(l, j) * point[l * k + j];
    for (std::size_t i = 0; i < n; ++i) {
      if (i == l) continue;
      double envied = 0.0;
      for (std::size_t j = 0; j < k; ++j) envied += w.at(l, j) * point[i * k + j];
      if (envied - own > 1e-7) violated.push_back(envy_row(w, l, i));
    }
  }
  return violated;
}

TEST(SolverCheckpoint, RestoredSolverResolvesPivotIdentically) {
  // Serialize a solver mid-session (after the round-1 solve), restore into a
  // fresh instance, which solves the exporter's model first (warm, no
  // pivots: the imported identity is that model's optimum), then drive both
  // through the same add_rows + resolve. The restored solver must pivot
  // identically and land on the bit-identical vertex — the foundation of the
  // daemon's warm-restart contract.
  common::Rng rng(77);
  int warm_restores = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(3, 9));
    const std::size_t k = static_cast<std::size_t>(rng.uniform_int(2, 4));
    const core::SpeedupMatrix w = random_matrix(rng, n, k);
    const std::vector<double> caps(k, 2.0);
    const LpModel model = oef_base_model(w, caps);

    LpSolver original((SolverOptions()));
    const LpSolution first = original.solve(model);
    ASSERT_TRUE(first.optimal());

    common::SerialWriter out;
    write_warm_state(out, original);

    LpSolver restored((SolverOptions()));
    common::SerialReader in(out.data());
    if (!read_warm_state(in, restored)) continue;  // nothing warm to compare
    ++warm_restores;
    const LpSolution resumed = restored.solve(model);
    ASSERT_TRUE(resumed.warm_started) << "trial " << trial;
    EXPECT_EQ(resumed.iterations, 0u) << "trial " << trial;

    const std::vector<Constraint> rows = violated_envy_rows(w, first.values);
    if (rows.empty()) continue;
    original.add_rows(rows);
    restored.add_rows(rows);
    const LpSolution a = original.resolve();
    const LpSolution b = restored.resolve();
    ASSERT_TRUE(a.optimal());
    ASSERT_TRUE(b.optimal());
    EXPECT_EQ(a.iterations, b.iterations) << "trial " << trial;
    ASSERT_EQ(a.values.size(), b.values.size());
    for (std::size_t v = 0; v < a.values.size(); ++v) {
      // memcmp, not EXPECT_DOUBLE_EQ: the contract is bit-identity.
      EXPECT_EQ(0, std::memcmp(&a.values[v], &b.values[v], sizeof(double)))
          << "trial " << trial << " var " << v;
    }
    EXPECT_EQ(0, std::memcmp(&a.objective, &b.objective, sizeof(double)));
  }
  EXPECT_GE(warm_restores, 5);
}

TEST(SolverCheckpoint, ImportHoldsTheIdentityForTheNextSameShapeSolve) {
  common::Rng rng(5);
  const core::SpeedupMatrix w = random_matrix(rng, 6, 3);
  const LpModel model = oef_base_model(w, {3.0, 2.0, 2.0});
  LpSolver exporter((SolverOptions()));
  ASSERT_TRUE(exporter.solve(model).optimal());
  common::SerialWriter out;
  write_warm_state(out, exporter);

  LpSolver importer((SolverOptions()));
  common::SerialReader in(out.data());
  ASSERT_TRUE(read_warm_state(in, importer));
  EXPECT_TRUE(in.at_end());
  // Held, not loaded: no basis, no pivots, and exported as imported.
  EXPECT_FALSE(importer.has_basis());
  EXPECT_EQ(importer.stats().total_iterations, 0u);
  common::SerialWriter again;
  write_warm_state(again, importer);
  EXPECT_EQ(again.data(), out.data());

  const LpSolution resumed = importer.solve(model);
  ASSERT_TRUE(resumed.optimal());
  EXPECT_TRUE(resumed.warm_started);
  EXPECT_EQ(resumed.iterations, 0u);
  EXPECT_EQ(importer.stats().warm_start_hits, 1u);
  EXPECT_EQ(importer.stats().cold_solves, 0u);
  EXPECT_TRUE(importer.has_basis());

  // From here the two solvers are one: a same-shape perturbation solves
  // bit-identically on both.
  const core::SpeedupMatrix w2 = random_matrix(rng, 6, 3);
  const LpModel next = oef_base_model(w2, {3.5, 2.0, 1.5});
  const LpSolution a = exporter.solve(next);
  const LpSolution b = importer.solve(next);
  ASSERT_TRUE(a.optimal());
  ASSERT_TRUE(b.optimal());
  EXPECT_TRUE(a.warm_started);
  EXPECT_EQ(b.warm_started, a.warm_started);
  EXPECT_EQ(b.iterations, a.iterations);
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t v = 0; v < a.values.size(); ++v) {
    EXPECT_EQ(0, std::memcmp(&a.values[v], &b.values[v], sizeof(double))) << "var " << v;
  }
  EXPECT_EQ(0, std::memcmp(&a.objective, &b.objective, sizeof(double)));
}

TEST(SolverCheckpoint, DepartureCrossesOverFromThePreviousVertex) {
  // The full Eq. 10 LP for 10 users, then the user with the largest bundle
  // leaves: its columns and every envy row naming it go, through a map. The
  // previous optimum without that user is still feasible, so a start that
  // keeps it needs no dual pivot (dropping the surplus basic columns to zero
  // instead leaves rows infeasible). A solver that imported the identity
  // translates the same way, pivot for pivot.
  common::Rng rng(12);
  const std::size_t n = 10;
  const std::size_t k = 3;
  const core::SpeedupMatrix w = random_matrix(rng, n, k);
  const std::vector<double> caps = {3.0, 4.0, 2.2};
  LpModel model = oef_base_model(w, caps);
  for (std::size_t l = 0; l < n; ++l) {
    for (std::size_t i = 0; i < n; ++i) {
      if (l != i) model.add_constraint(envy_row(w, l, i));
    }
  }
  LpSolver live((SolverOptions()));
  const LpSolution before = live.solve(model);
  ASSERT_TRUE(before.optimal());
  std::size_t gone = 0;
  double largest = -1.0;
  for (std::size_t l = 0; l < n; ++l) {
    double bundle = 0.0;
    for (std::size_t j = 0; j < k; ++j) bundle += before.values[l * k + j];
    if (bundle > largest) {
      largest = bundle;
      gone = l;
    }
  }

  std::vector<std::vector<double>> rows;
  std::vector<std::size_t> index_of(n, LpModelMap::kNew);
  LpModelMap map;
  for (std::size_t l = 0; l < n; ++l) {
    if (l == gone) continue;
    index_of[l] = rows.size();
    rows.push_back({w.at(l, 0), w.at(l, 1), w.at(l, 2)});
    for (std::size_t j = 0; j < k; ++j) map.variables.push_back(l * k + j);
  }
  const core::SpeedupMatrix rest(rows);
  LpModel reshaped = oef_base_model(rest, caps);
  for (std::size_t j = 0; j < k; ++j) map.constraints.push_back(j);
  std::size_t row = k;
  for (std::size_t l = 0; l < n; ++l) {
    for (std::size_t i = 0; i < n; ++i) {
      if (l == i) continue;
      if (l != gone && i != gone) {
        reshaped.add_constraint(envy_row(rest, index_of[l], index_of[i]));
        map.constraints.push_back(row);
      }
      ++row;
    }
  }

  const std::optional<LpWarmState> state = live.export_warm_state();
  ASSERT_TRUE(state.has_value());
  LpSolver restored((SolverOptions()));
  ASSERT_TRUE(restored.import_warm_state(*state));
  const LpSolution a = live.solve(reshaped, map);
  const LpSolution b = restored.solve(reshaped, map);
  const LpSolution cold = LpSolver(SolverOptions()).solve(reshaped);
  ASSERT_TRUE(a.optimal());
  ASSERT_TRUE(cold.optimal());
  EXPECT_TRUE(a.warm_started);
  EXPECT_EQ(a.dual_iterations, 0u);
  EXPECT_NEAR(a.objective, cold.objective, 1e-6 * (1.0 + std::abs(cold.objective)));
  EXPECT_TRUE(b.warm_started);
  EXPECT_EQ(b.iterations, a.iterations);
  EXPECT_EQ(0, std::memcmp(&a.objective, &b.objective, sizeof(double)));

  // A damaged record can hold finite values whose row activities overflow;
  // the translated solve must still answer with the optimum.
  for (const double huge : {1e300, std::numeric_limits<double>::max()}) {
    LpWarmState damaged = *state;
    for (double& value : damaged.values) value = huge;
    LpSolver solver((SolverOptions()));
    ASSERT_TRUE(solver.import_warm_state(damaged));
    const LpSolution solution = solver.solve(reshaped, map);
    ASSERT_TRUE(solution.optimal());
    EXPECT_NEAR(solution.objective, cold.objective, 1e-6 * (1.0 + std::abs(cold.objective)));
  }
}

/// An LP whose all-slack start is infeasible in every way the one-unit-column
/// layout allows: an equality with a nonzero rhs ahead of the inequalities,
/// a >= row with a positive rhs and a <= row with a negative one (both loaded
/// as <= rows whose slack starts negative), plus a plain <= row.
LpModel infeasible_start_lp(double cost_y, double cover) {
  LpModel model(Sense::kMinimize);
  const VarId x = model.add_variable(0.0, kInf, 3.0);
  const VarId y = model.add_variable(0.0, 2.5, cost_y);
  const VarId z = model.add_variable(0.0, kInf, 1.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0).add(y, 1.0).add(z, 1.0), Relation::kEqual, 4.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0).add(y, 2.0), Relation::kGreaterEqual, cover);
  model.add_constraint(LinearExpr{}.add(x, -1.0).add(z, 1.0), Relation::kLessEqual, -1.0);
  model.add_constraint(LinearExpr{}.add(x, 1.0).add(y, 1.0), Relation::kLessEqual, 3.0);
  return model;
}

TEST(SolverCheckpoint, OneUnitColumnPerRowFromAnInfeasibleSlackStart) {
  const LpModel model = infeasible_start_lp(2.0, 2.0);
  LpSolver original((SolverOptions()));
  const LpSolution solved = original.solve(model);
  const LpSolution reference = SimplexSolver().solve(model);
  ASSERT_TRUE(solved.optimal());
  ASSERT_TRUE(reference.optimal());
  EXPECT_NEAR(solved.objective, reference.objective, 1e-9 * (1.0 + std::abs(reference.objective)));
  EXPECT_TRUE(model.is_feasible(solved.values, 1e-6));
  EXPECT_GT(solved.dual_iterations, 0u);  // the dual repairs the start

  // One unit column per row: a slack per inequality (a >= row is loaded as
  // <=), an artificial for the equality; so one at-upper flag per
  // structural column and per row.
  const std::optional<LpWarmState> state = original.export_warm_state();
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->structural_columns, 3u);
  EXPECT_EQ(state->relations, (std::vector<Relation>{Relation::kEqual, Relation::kLessEqual,
                                                      Relation::kLessEqual,
                                                      Relation::kLessEqual}));
  EXPECT_EQ(state->at_upper.size(), state->structural_columns + state->relations.size());

  // A twin that imports the identity continues like the original: the same
  // pivots to a bit-identical objective on a successor of the same shape.
  LpSolver twin((SolverOptions()));
  ASSERT_TRUE(twin.import_warm_state(*state));
  const LpModel next = infeasible_start_lp(0.5, 3.0);
  const LpSolution a = original.solve(next);
  const LpSolution b = twin.solve(next);
  ASSERT_TRUE(a.optimal());
  ASSERT_TRUE(b.optimal());
  EXPECT_TRUE(a.warm_started);
  EXPECT_TRUE(b.warm_started);
  EXPECT_GT(a.iterations, 0u);
  EXPECT_EQ(b.iterations, a.iterations);
  EXPECT_EQ(0, std::memcmp(&a.objective, &b.objective, sizeof(double)));
  const LpSolution next_reference = SimplexSolver().solve(next);
  ASSERT_TRUE(next_reference.optimal());
  EXPECT_NEAR(a.objective, next_reference.objective,
              1e-9 * (1.0 + std::abs(next_reference.objective)));
}

TEST(SolverCheckpoint, ImportedIdentityOfAnotherShapeSolvesCold) {
  common::Rng rng(6);
  const core::SpeedupMatrix w = random_matrix(rng, 5, 3);
  const LpModel model = oef_base_model(w, {3.0, 2.0, 2.0});
  LpSolver exporter((SolverOptions()));
  ASSERT_TRUE(exporter.solve(model).optimal());
  const std::optional<LpWarmState> state = exporter.export_warm_state();
  ASSERT_TRUE(state.has_value());

  LpSolver importer((SolverOptions()));
  ASSERT_TRUE(importer.import_warm_state(*state));
  // One more row changes the shape, so the held identity cannot install.
  LpModel wider = model;
  wider.add_constraint(envy_row(w, 0, 1));
  const LpSolution solution = importer.solve(wider);
  ASSERT_TRUE(solution.optimal());
  EXPECT_FALSE(solution.warm_started);
  EXPECT_EQ(importer.stats().warm_start_hits, 0u);
  EXPECT_EQ(importer.stats().cold_solves, 1u);
}

TEST(SolverCheckpoint, MalformedIdentityIsRefused) {
  common::Rng rng(8);
  const core::SpeedupMatrix w = random_matrix(rng, 4, 3);
  LpSolver exporter((SolverOptions()));
  ASSERT_TRUE(exporter.solve(oef_base_model(w, {2.0, 2.0, 2.0})).optimal());
  const std::optional<LpWarmState> state = exporter.export_warm_state();
  ASSERT_TRUE(state.has_value());
  ASSERT_GE(state->basic.size(), 2u);

  // Self-inconsistent identities import as cold and leave nothing held.
  LpWarmState repeated = *state;
  repeated.basic[1] = repeated.basic[0];
  LpWarmState short_flags = *state;
  short_flags.at_upper.pop_back();
  LpWarmState extra_row = *state;
  extra_row.relations.push_back(Relation::kLessEqual);
  // The vertex: one finite nonnegative value per structural column.
  ASSERT_EQ(state->values.size(), state->structural_columns);
  LpWarmState short_values = *state;
  short_values.values.pop_back();
  LpWarmState nan_value = *state;
  nan_value.values[0] = std::numeric_limits<double>::quiet_NaN();
  LpWarmState negative_value = *state;
  negative_value.values[0] = -1.0;
  for (const LpWarmState& bad :
       {repeated, short_flags, extra_row, short_values, nan_value, negative_value}) {
    LpSolver importer((SolverOptions()));
    EXPECT_FALSE(importer.import_warm_state(bad));
    EXPECT_FALSE(importer.export_warm_state().has_value());
  }

  // A relation tag past kEqual is corrupt data, not a cold restore.
  common::SerialWriter out;
  out.u64(1);  // warm-state marker
  out.u64(state->structural_columns);
  out.byte_vec(std::vector<char>(state->relations.size(), 3));
  out.size_vec(state->basic);
  out.byte_vec(state->at_upper);
  LpSolver importer((SolverOptions()));
  common::SerialReader in(out.data());
  try {
    (void)read_warm_state(in, importer);
    FAIL() << "relation tag 3 was accepted";
  } catch (const common::CheckError& error) {
    EXPECT_EQ(error.code(), common::ErrorCode::kCorruptData);
  }
}

TEST(SolverCheckpoint, SolverWithoutBasisWritesColdMarker) {
  LpSolver solver((SolverOptions()));
  EXPECT_FALSE(solver.export_warm_state().has_value());
  common::SerialWriter out;
  write_warm_state(out, solver);
  LpSolver target((SolverOptions()));
  common::SerialReader in(out.data());
  EXPECT_FALSE(read_warm_state(in, target));
  EXPECT_TRUE(in.at_end());
}

TEST(SolverCheckpoint, TruncatedStreamThrowsCorruptData) {
  common::Rng rng(3);
  const core::SpeedupMatrix w = random_matrix(rng, 4, 3);
  const LpModel model = oef_base_model(w, {2.0, 2.0, 2.0});
  LpSolver solver((SolverOptions()));
  (void)solver.solve(model);
  common::SerialWriter out;
  write_warm_state(out, solver);

  const std::string full = out.data();
  for (const std::size_t keep : {full.size() / 4, full.size() / 2, full.size() - 3}) {
    LpSolver target((SolverOptions()));
    common::SerialReader in(std::string_view(full).substr(0, keep));
    try {
      (void)read_warm_state(in, target);
      FAIL() << "truncated stream at " << keep << " bytes did not throw";
    } catch (const common::CheckError& error) {
      EXPECT_EQ(error.code(), common::ErrorCode::kCorruptData);
    }
  }
}

TEST(AllocatorCheckpoint, EachModeRestoresWarmAndRefusesTheOtherMode) {
  // The allocator record carries its mode tag and one solver identity; each
  // mode must restore it and continue exactly like the allocator that wrote
  // it, and refuse a record of the other mode.
  using Mode = core::OefAllocator::Mode;
  common::Rng rng(17);
  const core::SpeedupMatrix w = random_matrix(rng, 6, 3);
  const std::vector<double> caps = {4.0, 3.0, 2.0};
  for (const Mode mode : {Mode::kCooperative, Mode::kNonCooperative}) {
    const core::OefAllocator original(mode);
    ASSERT_TRUE(original.allocate(w, caps).ok());
    common::SerialWriter out;
    original.save_warm_state(out);

    core::OefAllocator restored(mode);
    common::SerialReader in(out.data());
    EXPECT_TRUE(restored.load_warm_state(in));
    EXPECT_TRUE(in.at_end());
    const core::AllocationResult expected = original.allocate(w, caps);
    const core::AllocationResult actual = restored.allocate(w, caps);
    EXPECT_EQ(actual.lp_iterations, expected.lp_iterations);
    EXPECT_EQ(actual.total_efficiency, expected.total_efficiency);

    core::OefAllocator other(mode == Mode::kCooperative ? Mode::kNonCooperative
                                                        : Mode::kCooperative);
    common::SerialReader again(out.data());
    try {
      (void)other.load_warm_state(again);
      FAIL() << "a checkpoint of the other mode was accepted";
    } catch (const common::CheckError& error) {
      EXPECT_EQ(error.code(), common::ErrorCode::kInvalidArgument);
    }
  }
}

TEST(SolverCheckpoint, ErrorCodes) {
  EXPECT_STREQ(common::to_string(common::ErrorCode::kCorruptData), "corrupt_data");
  try {
    OEF_REQUIRE_CODE(false, common::ErrorCode::kDimensionMismatch, "shape");
    FAIL();
  } catch (const common::CheckError& error) {
    EXPECT_EQ(error.code(), common::ErrorCode::kDimensionMismatch);
    EXPECT_NE(std::string(error.what()).find("shape"), std::string::npos);
  }
}

}  // namespace
}  // namespace oef::solver

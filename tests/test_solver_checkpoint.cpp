// Checkpoint contract of the solver layer (PR 9): an LpModel and a warm
// solver state serialized mid-session and restored into a fresh solver must
// continue *pivot-identically* — the restored solver performs the same
// resolve pivots and lands on the bit-identical vertex as the uninterrupted
// one. Corrupt streams must surface as CheckError(kCorruptData), never as
// silently wrong state.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
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
    for (std::size_t j = 0; j < k; ++j) model.add_variable("x", 0.0, kInf, w.at(l, j));
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
  return Constraint{std::move(expr), Relation::kGreaterEqual, 0.0, "ef"};
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

TEST(SolverCheckpoint, LpModelRoundTripsBitExact) {
  LpModel model(Sense::kMaximize);
  model.add_variable("a", 0.0, kInf, 1.0 / 3.0);
  model.add_variable("b", -2.5, 7.125, -0.1);
  model.add_variable("c", 0.0, 1.0, 1e-17);
  LinearExpr expr;
  expr.add(0, 0.3);
  expr.add(2, -1.0 / 7.0);
  model.add_constraint(std::move(expr), Relation::kLessEqual, 4.0, "cap");
  LinearExpr expr2;
  expr2.add(1, 2.0);
  model.add_constraint(std::move(expr2), Relation::kGreaterEqual, -1.0 / 3.0, "floor");

  common::SerialWriter out;
  write_lp_model(out, model);
  common::SerialReader in(out.data());
  const LpModel restored = read_lp_model(in);

  ASSERT_EQ(restored.num_variables(), model.num_variables());
  ASSERT_EQ(restored.num_constraints(), model.num_constraints());
  for (std::size_t v = 0; v < model.num_variables(); ++v) {
    // Bit-exact, not approximately equal: hexfloat round-trips exactly.
    EXPECT_EQ(restored.variables()[v].lower, model.variables()[v].lower);
    EXPECT_EQ(restored.variables()[v].upper, model.variables()[v].upper);
    EXPECT_EQ(restored.variables()[v].objective, model.variables()[v].objective);
  }
  for (std::size_t c = 0; c < model.num_constraints(); ++c) {
    EXPECT_EQ(restored.constraints()[c].rhs, model.constraints()[c].rhs);
    EXPECT_EQ(restored.constraints()[c].relation, model.constraints()[c].relation);
    ASSERT_EQ(restored.constraints()[c].expr.terms().size(),
              model.constraints()[c].expr.terms().size());
  }
}

TEST(SolverCheckpoint, RestoredSolverResolvesPivotIdentically) {
  // Serialize a solver mid-session (after the round-1 solve), restore into a
  // fresh instance, then drive both through the same add_rows + resolve.
  // The restored solver must pivot identically and land on the bit-identical
  // vertex — the foundation of the daemon's warm-restart contract.
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

TEST(SolverCheckpoint, CrossedOrNanBoundsThrowCorruptData) {
  // LpModel::add_variable aborts on such bounds, so the reader must refuse
  // them first. The stream is write_lp_model's layout for one variable.
  for (const auto& [lower, upper] : {std::pair{3.0, 1.0}, std::pair{std::nan(""), 1.0},
                                     std::pair{0.0, std::nan("")}}) {
    common::SerialWriter out;
    out.u64(0);  // maximise
    out.u64(1);  // one variable
    out.str("x");
    out.f64(lower);
    out.f64(upper);
    out.f64(1.0);  // objective
    out.u64(0);    // no constraints
    common::SerialReader in(out.data());
    try {
      (void)read_lp_model(in);
      FAIL() << "bounds [" << lower << ", " << upper << "] were accepted";
    } catch (const common::CheckError& error) {
      EXPECT_EQ(error.code(), common::ErrorCode::kCorruptData);
    }
  }
}

TEST(AllocatorCheckpoint, EachModeRestoresWarmAndRefusesTheOtherMode) {
  // The allocator record keeps a cooperative and a non-cooperative solver
  // slot; each mode must restore from its own slot and continue exactly like
  // the allocator that wrote it.
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

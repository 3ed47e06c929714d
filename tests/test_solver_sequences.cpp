// Random operation sequences against the stateful LpSolver.
//
// Seeded sequences over small random LPs (mixed relations, some finite upper
// bounds) drive every warm path: solve() of a same-shape coefficient
// perturbation (basis reuse), solve() of a reshaped model (a random subset of
// variables and rows dropped, fresh ones appended) through an LpModelMap,
// add_rows() of inequality cuts and now and then an equality, resolve(),
// delete_rows() of rows loose at the optimum (warm excision) and of binding
// rows (refused excision), and export_warm_state() + import_warm_state()
// into a fresh twin that first solves the exporter's model (warm, in zero
// pivots) and then receives the same operations. After every solve or
// resolve the result must match the reference tableau (SimplexSolver) on the
// solver's own model — status, objective to 1e-6, a feasible point — and the
// twin must report a bit-identical objective and the same iteration count.
// No revised optimum may fail its optimality certificate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "solver/lp_model.h"
#include "solver/lp_solver.h"
#include "solver/simplex.h"

namespace oef::solver {
namespace {

constexpr double kTol = 1e-6;
constexpr std::size_t kSteps = 30;
constexpr std::size_t kMaxRows = 20;

/// Slack of `c` at `point`: >= 0 when satisfied, 0 for equality rows.
double slack(const Constraint& c, const std::vector<double>& point) {
  const double lhs = c.expr.evaluate(point);
  switch (c.relation) {
    case Relation::kLessEqual: return c.rhs - lhs;
    case Relation::kGreaterEqual: return lhs - c.rhs;
    case Relation::kEqual: return 0.0;
  }
  return 0.0;
}

/// Random sparse expression over `nvars` variables (at least one term). Now
/// and then one variable's term repeats, or an exactly cancelling pair
/// (+a·x, −a·x) joins, so the standard-form rows must sum repeated terms in
/// term order and drop the exact zeros they leave.
LinearExpr random_expr(common::Rng& rng, std::size_t nvars) {
  const auto random_var = [&] {
    return static_cast<VarId>(rng.uniform_int(0, static_cast<std::int64_t>(nvars) - 1));
  };
  const auto random_coeff = [&] {
    const double sign = rng.uniform() < 0.3 ? -1.0 : 1.0;
    return sign * rng.uniform(0.1, 2.0);
  };
  LinearExpr expr;
  for (std::size_t v = 0; v < nvars; ++v) {
    if (rng.uniform() >= 0.6) continue;
    expr.add(v, random_coeff());
  }
  if (expr.terms().empty()) expr.add(random_var(), 1.0);
  if (rng.uniform() < 0.2) {
    const auto last = static_cast<std::int64_t>(expr.terms().size()) - 1;
    const VarId repeated = expr.terms()[static_cast<std::size_t>(rng.uniform_int(0, last))].var;
    expr.add(repeated, random_coeff());
  }
  if (rng.uniform() < 0.2) {
    const VarId var = random_var();
    const double coeff = rng.uniform(0.1, 2.0);
    expr.add(var, coeff).add(var, -coeff);
  }
  return expr;
}

/// Every generated row keeps `anchor` feasible, so every model of a sequence
/// is feasible; the budget row (row 0, never deleted) keeps it bounded.
LpModel random_model(common::Rng& rng, std::vector<double>& anchor) {
  const std::size_t nvars = static_cast<std::size_t>(rng.uniform_int(3, 8));
  LpModel model(rng.uniform() < 0.5 ? Sense::kMaximize : Sense::kMinimize);
  anchor.assign(nvars, 0.0);
  LinearExpr budget;
  double budget_at_anchor = 0.0;
  for (std::size_t v = 0; v < nvars; ++v) {
    const double lower = rng.uniform() < 0.3 ? rng.uniform(-1.0, 1.0) : 0.0;
    const double upper = rng.uniform() < 0.4 ? lower + rng.uniform(0.5, 4.0) : kInf;
    model.add_variable(lower, upper, rng.uniform(-2.0, 3.0));
    const double range = std::isfinite(upper) ? upper - lower : 2.0;
    anchor[v] = lower + rng.uniform(0.0, 1.0) * range;
    budget.add(v, 1.0);
    budget_at_anchor += anchor[v];
  }
  model.add_constraint(std::move(budget), Relation::kLessEqual,
                       budget_at_anchor + rng.uniform(0.5, 3.0));
  const std::size_t rows = static_cast<std::size_t>(rng.uniform_int(1, 5));
  for (std::size_t r = 0; r < rows; ++r) {
    LinearExpr expr = random_expr(rng, nvars);
    const double at = expr.evaluate(anchor);
    const double roll = rng.uniform();
    if (roll < 0.5) {
      model.add_constraint(std::move(expr), Relation::kLessEqual, at + rng.uniform(0.0, 2.0));
    } else if (roll < 0.85) {
      model.add_constraint(std::move(expr), Relation::kGreaterEqual, at - rng.uniform(0.0, 2.0));
    } else {
      model.add_constraint(std::move(expr), Relation::kEqual, at);
    }
  }
  return model;
}

/// Same shape (variables, bounds, rows, relations), jittered objective and
/// coefficients; each row keeps its signed margin at the anchor.
LpModel perturbed(common::Rng& rng, const LpModel& model, const std::vector<double>& anchor) {
  LpModel out(model.sense());
  for (const Variable& var : model.variables()) {
    out.add_variable(var.lower, var.upper, var.objective * rng.uniform(0.7, 1.3));
  }
  for (const Constraint& c : model.constraints()) {
    LinearExpr expr;
    for (const LinearTerm& term : c.expr.terms()) {
      expr.add(term.var, term.coeff * rng.uniform(0.8, 1.2));
    }
    const double margin =
        c.relation == Relation::kEqual ? 0.0 : c.rhs - c.expr.evaluate(anchor);
    const double rhs = expr.evaluate(anchor) + margin * rng.uniform(0.8, 1.2);
    out.add_constraint(std::move(expr), c.relation, rhs);
  }
  return out;
}

/// One to three rows that keep the anchor feasible; inequality cuts are
/// placed between the anchor and `optimum` so they cut the optimum off, and
/// now and then an equality through the anchor joins them.
std::vector<Constraint> random_cuts(common::Rng& rng, std::size_t nvars,
                                    const std::vector<double>& anchor,
                                    const std::vector<double>& optimum) {
  std::vector<Constraint> cuts;
  const std::size_t count = static_cast<std::size_t>(rng.uniform_int(1, 3));
  for (std::size_t c = 0; c < count; ++c) {
    LinearExpr expr = random_expr(rng, nvars);
    const double at_anchor = expr.evaluate(anchor);
    const double at_optimum = optimum.empty() ? at_anchor : expr.evaluate(optimum);
    const double between = at_anchor + rng.uniform(0.1, 0.9) * (at_optimum - at_anchor);
    if (rng.uniform() < 0.1) {
      cuts.push_back(Constraint{std::move(expr), Relation::kEqual, at_anchor});
    } else if (at_optimum > at_anchor + 1e-6) {
      cuts.push_back(Constraint{std::move(expr), Relation::kLessEqual, between});
    } else if (at_optimum < at_anchor - 1e-6) {
      cuts.push_back(Constraint{std::move(expr), Relation::kGreaterEqual, between});
    } else {
      cuts.push_back(Constraint{std::move(expr), Relation::kLessEqual,
                                at_anchor + rng.uniform(0.0, 1.0)});
    }
  }
  return cuts;
}

/// A reshaped model, the map onto the model it continues, and its anchor
/// (the surviving variables' anchor values, then the fresh ones').
struct Reshape {
  LpModel model;
  LpModelMap map;
  std::vector<double> anchor;
};

/// Drops each variable with probability 0.2 and each row but the budget (row
/// 0) with probability 0.3, then appends up to two fresh variables and up to
/// two fresh rows. A dropped variable's terms leave every row; each kept row
/// keeps its signed margin at the new anchor and the budget row covers every
/// variable, so the reshaped model is feasible and bounded too.
Reshape reshaped(common::Rng& rng, const LpModel& model, const std::vector<double>& anchor) {
  Reshape out{LpModel(model.sense()), {}, {}};
  std::vector<std::size_t> index_of(model.num_variables(), LpModelMap::kNew);
  for (std::size_t v = 0; v < model.num_variables(); ++v) {
    if (rng.uniform() < 0.2) continue;
    const Variable& var = model.variables()[v];
    index_of[v] = out.model.add_variable(var.lower, var.upper, var.objective);
    out.map.variables.push_back(v);
    out.anchor.push_back(anchor[v]);
  }
  const std::size_t fresh_vars =
      static_cast<std::size_t>(rng.uniform_int(out.anchor.empty() ? 1 : 0, 2));
  for (std::size_t f = 0; f < fresh_vars; ++f) {
    const double lower = rng.uniform() < 0.3 ? rng.uniform(-1.0, 1.0) : 0.0;
    const double upper = rng.uniform() < 0.4 ? lower + rng.uniform(0.5, 4.0) : kInf;
    out.model.add_variable(lower, upper, rng.uniform(-2.0, 3.0));
    out.map.variables.push_back(LpModelMap::kNew);
    const double range = std::isfinite(upper) ? upper - lower : 2.0;
    out.anchor.push_back(lower + rng.uniform(0.0, 1.0) * range);
  }
  const auto keep_margin = [&](LinearExpr expr, const Constraint& old) {
    const double margin =
        old.relation == Relation::kEqual ? 0.0 : old.rhs - old.expr.evaluate(anchor);
    const double rhs = expr.evaluate(out.anchor) + margin;
    out.model.add_constraint(std::move(expr), old.relation, rhs);
  };
  for (std::size_t c = 0; c < model.num_constraints(); ++c) {
    const Constraint& old = model.constraints()[c];
    if (c == 0) {
      LinearExpr budget;
      for (std::size_t v = 0; v < out.anchor.size(); ++v) budget.add(v, 1.0);
      keep_margin(std::move(budget), old);
    } else if (rng.uniform() < 0.3) {
      continue;
    } else {
      LinearExpr expr;
      for (const LinearTerm& term : old.expr.terms()) {
        if (index_of[term.var] != LpModelMap::kNew) expr.add(index_of[term.var], term.coeff);
      }
      keep_margin(std::move(expr), old);
    }
    out.map.constraints.push_back(c);
  }
  const std::size_t fresh_rows = static_cast<std::size_t>(rng.uniform_int(0, 2));
  for (std::size_t r = 0; r < fresh_rows; ++r) {
    LinearExpr expr = random_expr(rng, out.anchor.size());
    const double at = expr.evaluate(out.anchor);
    const Relation relation = rng.uniform() < 0.5 ? Relation::kLessEqual : Relation::kGreaterEqual;
    const double rhs = relation == Relation::kLessEqual ? at + rng.uniform(0.0, 2.0)
                                                        : at - rng.uniform(0.0, 2.0);
    out.model.add_constraint(std::move(expr), relation, rhs);
    out.map.constraints.push_back(LpModelMap::kNew);
  }
  return out;
}

struct Coverage {
  std::size_t warm_solves = 0;
  std::size_t warm_reshapes = 0;
  std::size_t warm_resolves = 0;
  std::size_t equality_appends = 0;
  std::size_t warm_deletions = 0;
  std::size_t refused_deletions = 0;
  std::size_t imports = 0;
  std::size_t twin_checks = 0;
};

/// One seeded sequence. `twin`, once imported, receives every operation the
/// solver receives.
class SequenceRun {
 public:
  SequenceRun(std::uint64_t seed, Coverage& coverage) : rng_(seed), coverage_(coverage) {}

  void run() {
    const LpModel base = random_model(rng_, anchor_);
    check(solver_.solve(base), std::nullopt, "initial solve");
    fresh_core_ = true;
    for (std::size_t step = 0; step < kSteps; ++step) {
      label_ = "step " + std::to_string(step);
      const double roll = rng_.uniform();
      const bool crowded = solver_.model().num_constraints() > kMaxRows;
      if (roll < 0.2 && !crowded) {
        solve_perturbation();
      } else if (roll < 0.5 && !crowded) {
        add_cuts();
      } else if (roll < 0.6) {
        resolve();
      } else if (roll < 0.85 || crowded) {
        delete_rows();
      } else {
        export_import();
      }
      // Every third step also reshapes the model, on top of the rolled
      // operation, so the reshaped solves take no share of the others.
      if (step % 3 == 2) {
        label_ += " + reshape";
        solve_reshaped();
      }
    }
    // No revised optimum of the sequence may fail its certificate.
    EXPECT_EQ(solver_.stats().certificate_failures, 0u) << label_;
    if (twin_) {
      EXPECT_EQ(twin_->stats().certificate_failures, 0u) << label_;
    }
  }

 private:
  void solve_perturbation() {
    const LpModel model = perturbed(rng_, solver_.model(), anchor_);
    const LpSolution a = solver_.solve(model);
    if (a.warm_started) ++coverage_.warm_solves;
    check(a, twin_ ? std::optional(twin_->solve(model)) : std::nullopt, "solve");
    fresh_core_ = true;
  }

  void solve_reshaped() {
    Reshape next = reshaped(rng_, solver_.model(), anchor_);
    anchor_ = std::move(next.anchor);
    const LpSolution a = solver_.solve(next.model, next.map);
    if (a.warm_started) ++coverage_.warm_reshapes;
    check(a, twin_ ? std::optional(twin_->solve(next.model, next.map)) : std::nullopt,
          "reshaped solve");
    fresh_core_ = true;
  }

  void add_cuts() {
    const std::vector<Constraint> cuts =
        random_cuts(rng_, anchor_.size(), anchor_, last_optimum_);
    for (const Constraint& c : cuts) {
      if (c.relation == Relation::kEqual) ++coverage_.equality_appends;
    }
    solver_.add_rows(cuts);
    if (twin_) twin_->add_rows(cuts);
    resolve();
  }

  LpSolution resolve() {
    const LpSolution a = solver_.resolve();
    if (a.warm_started) ++coverage_.warm_resolves;
    check(a, twin_ ? std::optional(twin_->resolve()) : std::nullopt, "resolve");
    // A warm resolve on appended or excised rows leaves an identity whose
    // scaling differs from a fresh load of the same model; only a loaded
    // core exports into a twin that continues bit-identically.
    fresh_core_ = !a.warm_started;
    return a;
  }

  void delete_rows() {
    if (last_optimum_.empty()) return;
    const auto& constraints = solver_.model().constraints();
    std::vector<std::size_t> loose;
    std::vector<std::size_t> binding;
    for (std::size_t c = 1; c < constraints.size(); ++c) {  // row 0: the budget
      const double s = slack(constraints[c], last_optimum_);
      if (s > 1e-5) loose.push_back(c);
      if (s < 1e-9) binding.push_back(c);
    }
    std::vector<std::size_t> drop;
    const bool take_binding = !binding.empty() && rng_.uniform() < 0.3;
    if (take_binding) {
      drop.push_back(binding[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(binding.size()) - 1))]);
    } else {
      for (const std::size_t c : loose) {
        if (rng_.uniform() < 0.6) drop.push_back(c);
      }
    }
    if (drop.empty()) return;

    const bool had_basis = solver_.has_basis();
    const bool warm = solver_.delete_rows(drop);
    EXPECT_EQ(warm, solver_.has_basis()) << label_;
    // Loose rows carry basic slacks, so their excision is never refused.
    if (had_basis && !take_binding) {
      EXPECT_TRUE(warm) << label_;
    }
    if (warm) {
      ++coverage_.warm_deletions;
    } else if (had_basis) {
      ++coverage_.refused_deletions;
    }
    if (twin_) {
      EXPECT_EQ(twin_->delete_rows(drop), warm) << label_;
    }
    const LpSolution resolved = resolve();
    // The excised rows were loose, so the vertex the solver stands on is
    // already optimal for the reduced model.
    if (warm && !take_binding) {
      EXPECT_EQ(resolved.iterations, 0u) << label_;
    }
  }

  void export_import() {
    if (!fresh_core_) return;
    const std::optional<LpWarmState> state = solver_.export_warm_state();
    if (!state) return;
    twin_.emplace();
    ASSERT_TRUE(twin_->import_warm_state(*state)) << label_;
    // The import only holds the identity; the twin's first solve of the
    // exporter's model installs it, and the exported optimum reoptimises in
    // zero pivots, so the twin then holds the exporting solver's identity.
    EXPECT_FALSE(twin_->has_basis()) << label_;
    const LpSolution resumed = twin_->solve(solver_.model());
    EXPECT_TRUE(resumed.warm_started) << label_;
    EXPECT_EQ(resumed.iterations, 0u) << label_;
    EXPECT_EQ(twin_->stats().total_iterations, 0u) << label_;
    EXPECT_EQ(twin_->model().num_constraints(), solver_.model().num_constraints());
    ++coverage_.imports;
  }

  void check(const LpSolution& got, const std::optional<LpSolution>& twin, const char* op) {
    const LpModel& model = solver_.model();
    const LpSolution reference = SimplexSolver().solve(model);
    ASSERT_EQ(got.status, reference.status) << label_ << " " << op;
    if (got.optimal()) {
      EXPECT_NEAR(got.objective, reference.objective,
                  kTol * (1.0 + std::abs(reference.objective)))
          << label_ << " " << op;
      EXPECT_TRUE(model.is_feasible(got.values, kTol)) << label_ << " " << op;
      last_optimum_ = got.values;
    } else {
      last_optimum_.clear();
    }
    if (twin) {
      ++coverage_.twin_checks;
      EXPECT_EQ(twin->status, got.status) << label_ << " " << op << " (twin)";
      EXPECT_EQ(twin->iterations, got.iterations) << label_ << " " << op << " (twin)";
      EXPECT_EQ(twin->warm_started, got.warm_started) << label_ << " " << op << " (twin)";
      // memcmp, not EXPECT_DOUBLE_EQ: the contract is bit-identity.
      EXPECT_EQ(0, std::memcmp(&twin->objective, &got.objective, sizeof(double)))
          << label_ << " " << op << " (twin)";
    }
  }

  common::Rng rng_;
  Coverage& coverage_;
  LpSolver solver_;
  std::optional<LpSolver> twin_;
  std::vector<double> anchor_;
  std::vector<double> last_optimum_;
  bool fresh_core_ = false;
  std::string label_ = "initial";
};

TEST(SolverSequences, WarmPathsMatchTheTableauAndImportedTwins) {
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    SCOPED_TRACE("sequence seed " + std::to_string(seed));
    SequenceRun(seed, coverage).run();
  }
  // The generator must exercise every warm path, not only cold solves.
  EXPECT_GT(coverage.warm_solves, 200u);
  EXPECT_GT(coverage.warm_reshapes, 600u);
  EXPECT_GT(coverage.warm_resolves, 750u);
  EXPECT_GT(coverage.equality_appends, 80u);
  EXPECT_GT(coverage.warm_deletions, 200u);
  EXPECT_GT(coverage.refused_deletions, 100u);
  EXPECT_GT(coverage.imports, 100u);
  EXPECT_GT(coverage.twin_checks, 650u);
}

TEST(SolverSequences, MalformedModelMapsNeverAbort) {
  // A map from a damaged checkpoint must degrade, not abort: a size that
  // differs from the new model is a caller error, an entry past the previous
  // identity or a repeated one solves cold, both from a live identity and
  // from an imported one. From either, the identity map is what the empty
  // map means: the same pivots to the same bits.
  common::Rng rng(5);
  std::vector<double> anchor;
  const LpModel model = random_model(rng, anchor);
  // Perturbations that compound, so the later ones move the optimal basis.
  std::vector<LpModel> moved = {perturbed(rng, model, anchor)};
  while (moved.size() < 8) moved.push_back(perturbed(rng, moved.back(), anchor));
  const std::size_t vars = model.num_variables();
  const std::size_t rows = model.num_constraints();
  const LpSolution reference = SimplexSolver().solve(model);
  ASSERT_TRUE(reference.optimal());

  LpModelMap identity;
  for (std::size_t v = 0; v < vars; ++v) identity.variables.push_back(v);
  for (std::size_t c = 0; c < rows; ++c) identity.constraints.push_back(c);
  LpModelMap short_map = identity;
  short_map.constraints.pop_back();
  LpModelMap past_end = identity;
  past_end.variables.back() = vars + 7;
  LpModelMap repeated = identity;
  repeated.constraints.back() = 0;

  LpSolver exporter;
  ASSERT_TRUE(exporter.solve(model).optimal());
  const std::optional<LpWarmState> state = exporter.export_warm_state();
  ASSERT_TRUE(state.has_value());
  for (const bool imported : {false, true}) {
    SCOPED_TRACE(imported ? "imported identity" : "live identity");
    const auto start = [&] {
      LpSolver solver;
      if (imported) {
        EXPECT_TRUE(solver.import_warm_state(*state));
      } else {
        EXPECT_TRUE(solver.solve(model).optimal());
      }
      return solver;
    };
    LpSolver refused = start();
    EXPECT_THROW((void)refused.solve(model, short_map), common::CheckError);
    // The refused call left the identity in place.
    EXPECT_TRUE(refused.solve(model, identity).warm_started);
    for (const LpModelMap* map : {&past_end, &repeated}) {
      LpSolver solver = start();
      const LpSolution solution = solver.solve(model, *map);
      ASSERT_TRUE(solution.optimal());
      EXPECT_FALSE(solution.warm_started);
      EXPECT_NEAR(solution.objective, reference.objective,
                  kTol * (1.0 + std::abs(reference.objective)));
    }
    // The identity map resumes the optimum in zero pivots, and on perturbed
    // models it takes the empty map's pivots to the same objective.
    LpSolver same = start();
    const LpSolution resumed = same.solve(model, identity);
    EXPECT_TRUE(resumed.warm_started);
    EXPECT_EQ(resumed.iterations, 0u);
    std::size_t pivots = 0;
    for (const LpModel& next : moved) {
      LpSolver by_map = start();
      LpSolver by_default = start();
      const LpSolution mapped = by_map.solve(next, identity);
      const LpSolution plain = by_default.solve(next);
      ASSERT_TRUE(plain.optimal());
      EXPECT_TRUE(plain.warm_started);
      EXPECT_TRUE(mapped.warm_started);
      EXPECT_EQ(mapped.iterations, plain.iterations);
      EXPECT_EQ(mapped.objective, plain.objective);
      pivots += plain.iterations;
    }
    EXPECT_GT(pivots, 0u);  // some perturbation moved the optimal basis
  }
}

}  // namespace
}  // namespace oef::solver

#include "solver/checkpoint.h"

#include "common/check.h"

namespace oef::solver {

namespace {

constexpr std::uint64_t kHasWarmState = 1;
constexpr std::uint64_t kNoWarmState = 0;

[[nodiscard]] Relation relation_from_u64(std::uint64_t value) {
  OEF_REQUIRE_CODE(value <= static_cast<std::uint64_t>(Relation::kEqual),
                   common::ErrorCode::kCorruptData, "bad relation tag");
  return static_cast<Relation>(value);
}

}  // namespace

void write_lp_model(common::SerialWriter& out, const LpModel& model) {
  out.u64(model.sense() == Sense::kMaximize ? 0 : 1);
  out.u64(model.num_variables());
  for (const Variable& var : model.variables()) {
    out.str(var.name);
    out.f64(var.lower);
    out.f64(var.upper);
    out.f64(var.objective);
  }
  out.u64(model.num_constraints());
  for (const Constraint& constraint : model.constraints()) {
    out.str(constraint.name);
    out.u64(static_cast<std::uint64_t>(constraint.relation));
    out.f64(constraint.rhs);
    out.u64(constraint.expr.terms().size());
    for (const LinearTerm& term : constraint.expr.terms()) {
      out.u64(term.var);
      out.f64(term.coeff);
    }
  }
}

LpModel read_lp_model(common::SerialReader& in) {
  const std::uint64_t sense = in.u64();
  OEF_REQUIRE_CODE(sense <= 1, common::ErrorCode::kCorruptData, "bad sense tag");
  LpModel model(sense == 0 ? Sense::kMaximize : Sense::kMinimize);
  const std::uint64_t num_vars = in.count();
  for (std::uint64_t v = 0; v < num_vars; ++v) {
    std::string name = in.str();
    const double lower = in.f64();
    const double upper = in.f64();
    const double objective = in.f64();
    // Also rejects NaN bounds, which add_variable would abort on.
    OEF_REQUIRE_CODE(lower <= upper, common::ErrorCode::kCorruptData,
                     "variable bounds crossed or NaN");
    model.add_variable(std::move(name), lower, upper, objective);
  }
  const std::uint64_t num_rows = in.count();
  for (std::uint64_t r = 0; r < num_rows; ++r) {
    Constraint constraint;
    constraint.name = in.str();
    constraint.relation = relation_from_u64(in.u64());
    constraint.rhs = in.f64();
    const std::uint64_t num_terms = in.count();
    for (std::uint64_t t = 0; t < num_terms; ++t) {
      const std::uint64_t var = in.u64();
      const double coeff = in.f64();
      OEF_REQUIRE_CODE(var < model.num_variables(), common::ErrorCode::kCorruptData,
                       "constraint term references unknown variable");
      constraint.expr.add(var, coeff);
    }
    model.add_constraint(std::move(constraint));
  }
  return model;
}

void write_warm_state(common::SerialWriter& out, const LpSolver& solver) {
  const std::optional<LpWarmState> state = solver.export_warm_state();
  if (!state.has_value()) {
    out.u64(kNoWarmState);
    return;
  }
  out.u64(kHasWarmState);
  write_lp_model(out, state->model);
  out.size_vec(state->basic);
  out.byte_vec(state->at_upper);
}

bool read_warm_state(common::SerialReader& in, LpSolver& solver) {
  const std::uint64_t marker = in.u64();
  OEF_REQUIRE_CODE(marker <= kHasWarmState, common::ErrorCode::kCorruptData,
                   "bad warm-state marker");
  if (marker == kNoWarmState) return false;
  LpWarmState state;
  state.model = read_lp_model(in);
  state.basic = in.size_vec();
  state.at_upper = in.byte_vec();
  return solver.import_warm_state(state);
}

}  // namespace oef::solver

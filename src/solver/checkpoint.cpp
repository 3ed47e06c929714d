#include "solver/checkpoint.h"

#include "common/check.h"

namespace oef::solver {

namespace {

constexpr std::uint64_t kHasWarmState = 1;
constexpr std::uint64_t kNoWarmState = 0;

}  // namespace

void write_warm_state(common::SerialWriter& out, const LpSolver& solver) {
  const std::optional<LpWarmState> state = solver.export_warm_state();
  if (!state.has_value()) {
    out.u64(kNoWarmState);
    return;
  }
  out.u64(kHasWarmState);
  out.u64(state->structural_columns);
  // One byte per row, like the at-upper flags.
  std::vector<char> relations;
  relations.reserve(state->relations.size());
  for (const Relation relation : state->relations) {
    relations.push_back(static_cast<char>(relation));
  }
  out.byte_vec(relations);
  out.size_vec(state->basic);
  out.byte_vec(state->at_upper);
  out.f64_vec(state->values);
}

bool read_warm_state(common::SerialReader& in, LpSolver& solver) {
  const std::uint64_t marker = in.u64();
  OEF_REQUIRE_CODE(marker <= kHasWarmState, common::ErrorCode::kCorruptData,
                   "bad warm-state marker");
  if (marker == kNoWarmState) return false;
  LpWarmState state;
  state.structural_columns = static_cast<std::size_t>(in.u64());
  for (const char tag : in.byte_vec()) {
    const auto value = static_cast<unsigned char>(tag);
    OEF_REQUIRE_CODE(value <= static_cast<unsigned char>(Relation::kEqual),
                     common::ErrorCode::kCorruptData, "bad relation tag");
    state.relations.push_back(static_cast<Relation>(value));
  }
  state.basic = in.size_vec();
  state.at_upper = in.byte_vec();
  state.values = in.f64_vec();
  return solver.import_warm_state(state);
}

}  // namespace oef::solver

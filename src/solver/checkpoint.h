// Serialization hooks for the solver's warm state (PR 9).
//
// The allocator daemon checkpoints its warm solver state so a crash-restart
// resumes with the previous optimal basis instead of a cold solve. The solver
// layer owns the encoding of its own artifacts: the LpModel (variables,
// bounds, objective, constraints — doubles as exact hexfloats) and the
// LpWarmState of lp_solver.h (model + basic set + at-upper flags). Container
// framing (magic, version, checksum, atomic rename) is the caller's job; see
// service/checkpoint.h.
//
// Readers throw common::CheckError(kCorruptData) on malformed input, matching
// the serial layer's contract; that includes a variable whose bounds are
// crossed or NaN, which LpModel::add_variable would otherwise abort on.
#pragma once

#include "common/serial.h"
#include "solver/lp_model.h"
#include "solver/lp_solver.h"

namespace oef::solver {

void write_lp_model(common::SerialWriter& out, const LpModel& model);
[[nodiscard]] LpModel read_lp_model(common::SerialReader& in);

/// Writes the solver's warm state, or a "no warm state" marker when the
/// solver has no reusable basis.
void write_warm_state(common::SerialWriter& out, const LpSolver& solver);

/// Reads what write_warm_state() wrote and imports it into `solver`. Returns
/// true when a warm state was present and installed; false when the marker
/// said cold or the restored basis failed to refactorise (the solver is then
/// cold and the caller's first solve runs cold — degraded, not an error).
/// Always consumes the full record either way.
bool read_warm_state(common::SerialReader& in, LpSolver& solver);

}  // namespace oef::solver

// Serialization hooks for the solver's warm state.
//
// The allocator daemon checkpoints its warm solver state so a crash-restart
// resumes with the previous optimal basis instead of a cold solve. The solver
// layer owns the encoding of its LpWarmState (lp_solver.h): the structural
// column count, one normalised relation per row, the basic set, the
// at-upper flags and the structural values at that vertex (hexfloats, so a
// restored translation crosses over from bit-identical values). No LP model
// is written: the restarted caller rebuilds its model, and the next solve()
// translates the identity. Container framing (magic, version, checksum,
// atomic rename) is the caller's job; see service/checkpoint.h.
//
// The reader throws common::CheckError(kCorruptData) on malformed input,
// matching the serial layer's contract; that includes a relation tag past
// Relation::kEqual.
#pragma once

#include "common/serial.h"
#include "solver/lp_solver.h"

namespace oef::solver {

/// Writes the solver's warm identity, or a "no warm state" marker when the
/// solver holds none.
void write_warm_state(common::SerialWriter& out, const LpSolver& solver);

/// Reads what write_warm_state() wrote and imports it into `solver`. Returns
/// true when a warm identity was present and import_warm_state() accepted
/// it; false when the marker said cold or the identity was not
/// self-consistent (the solver then holds none and its first solve runs
/// cold — degraded, not an error). Always consumes the full record either
/// way.
bool read_warm_state(common::SerialReader& in, LpSolver& solver);

}  // namespace oef::solver

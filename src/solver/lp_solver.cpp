#include "solver/lp_solver.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "common/clock.h"
#include "solver/basis.h"
#include "solver/certificate.h"
#include "solver/fault_injector.h"
#include "solver/sparse_matrix.h"
#include "solver/standard_form.h"

namespace oef::solver {

namespace {

constexpr double kPivotTol = 1e-7;
constexpr double kFeasTol = 1e-9;
// Devex reference-framework restart threshold: when the largest weight grows
// past this, the frame is stale and all weights reset to 1.
constexpr double kDevexReset = 1e7;
// Scale the fault injector applies to the U diagonal a corrupted
// Forrest–Tomlin update set.
constexpr double kEtaCorruptionFactor = 1e3;
// Every residual of a kept result's optimality certificate must be within it.
constexpr double kCertificateTol = 1e-6;
// The phases check the basic values against the true basis matrix every
// kResidualInterval basis changes; a row residual past kResidualTol (relative
// to 1 + |rhs|) forces a refactorisation.
constexpr std::size_t kResidualInterval = 10;
constexpr double kResidualTol = 1e-6;

double seconds_since(double start) { return common::monotonic_seconds() - start; }

/// True when `state` is self-consistent: one basic column per row, one
/// at-upper flag per column of Core::load's layout (the structural columns,
/// a slack per inequality row, an artificial per >= or = row), basic
/// columns in range and distinct, and no values or one finite nonnegative
/// value per structural column.
bool well_formed(const LpWarmState& state) {
  if (state.basic.size() != state.relations.size()) return false;
  if (!state.values.empty() && state.values.size() != state.structural_columns) return false;
  for (const double value : state.values) {
    if (!(value >= 0.0 && std::isfinite(value))) return false;
  }
  std::size_t columns = state.structural_columns;
  for (const Relation relation : state.relations) {
    columns += relation == Relation::kGreaterEqual ? 2 : 1;
  }
  // The first test catches a wrapped sum (a corrupt structural count).
  if (columns < state.structural_columns || columns != state.at_upper.size()) return false;
  std::vector<char> seen(columns, 0);
  for (const std::size_t col : state.basic) {
    if (col >= columns || seen[col]) return false;
    seen[col] = 1;
  }
  return true;
}

/// The unit (slack, surplus or artificial) columns of each row in Core::load's
/// column layout: after the `structural` columns, a slack or surplus per
/// inequality row in row order, then an artificial per >= or = row in row
/// order. A >= row lists its surplus before its artificial.
std::vector<std::vector<std::size_t>> unit_columns(std::size_t structural,
                                                   const std::vector<Relation>& relations) {
  std::size_t next_slack = structural;
  std::size_t next_artificial = structural;
  for (const Relation relation : relations) {
    if (relation != Relation::kEqual) ++next_artificial;
  }
  std::vector<std::vector<std::size_t>> units(relations.size());
  for (std::size_t i = 0; i < relations.size(); ++i) {
    if (relations[i] != Relation::kEqual) units[i].push_back(next_slack++);
    if (relations[i] != Relation::kLessEqual) units[i].push_back(next_artificial++);
  }
  return units;
}

/// The map that continues every standard column and row of `previous` at its
/// own index: what an empty LpModelMap means.
LpModelMap identity_map(const LpWarmState& previous) {
  LpModelMap map;
  map.variables.resize(previous.structural_columns);
  std::iota(map.variables.begin(), map.variables.end(), std::size_t{0});
  map.constraints.resize(previous.relations.size());
  std::iota(map.constraints.begin(), map.constraints.end(), std::size_t{0});
  return map;
}

/// True when `map` continues every variable and constraint of `previous` at
/// its own index, as an empty map does: the translation keeps no vertex.
bool is_identity(const LpModelMap& map, const LpWarmState& previous) {
  if (map.empty()) return true;
  if (map.variables.size() != previous.structural_columns ||
      map.constraints.size() != previous.relations.size()) {
    return false;
  }
  for (std::size_t v = 0; v < map.variables.size(); ++v) {
    if (map.variables[v] != v) return false;
  }
  for (std::size_t i = 0; i < map.constraints.size(); ++i) {
    if (map.constraints[i] != i) return false;
  }
  return true;
}

}  // namespace

// Revised-simplex state: standard form (scaled, column-sparse), Basis, and
// the current basic solution. One Core corresponds to one loaded model; a
// warm identity (basic set + nonbasic bound statuses) translated onto it is
// reoptimised by reoptimize(), the one warm entry.
//
// Variable upper bounds are handled natively (bounded-variable simplex): a
// nonbasic column rests at its lower bound (value 0) or, when at_upper_ is
// set, at its finite upper bound; the primal ratio test lets basics leave at
// either bound and lets the entering column flip bounds without a basis
// change, and the dual ratio test prices both directions.
//
// Pricing keeps the reduced costs d across pivots: price() computes them from
// a fresh y = B^-T c_B at phase entry, after every refactorisation and before
// a primal optimal exit, and every basis change in between updates them from
// the pivot row α = ρᵀA (d_j −= θ·α_j). α is formed row-wise from the
// constraint matrix's row-major copy over ρ's nonzero rows, once per pivot,
// and feeds the d update, the primal devex weights and the dual ratio test.
class LpSolver::Core {
 public:
  /// Loads `model` into this fresh Core (each Core loads exactly once).
  void load(const LpModel& model, const SolverOptions& options);

  /// Two-phase cold solve from the all-slack/artificial basis.
  [[nodiscard]] SolveStatus run_cold(const SolverOptions& options);

  /// Installs `previous`, the identity (another core's or a checkpoint's) of
  /// the model `map` continues, on this freshly load()ed core, translated
  /// onto its shape (see LpSolver::solve); an empty map is the identity over
  /// the previous standard columns and rows. Reads the previous identity in
  /// Core::load's column layout. Unless the map is the identity, it also
  /// keeps the previous vertex (mapped structural values, new columns at
  /// zero) for reoptimize()'s cross_over(). Returns false, for a cold solve,
  /// when `previous` is not well-formed, the map's sizes differ from this
  /// core's standard columns and rows (an empty map: the previous counts do),
  /// or a map entry is past the previous identity or repeated.
  [[nodiscard]] bool translate(const LpWarmState& previous, const LpModelMap& map);

  /// The warm entry: refactorises the installed basic set, moves a
  /// translated start onto the previous vertex (cross_over), then
  /// reoptimises with run_phase2(): primal pivots if it is primal-feasible,
  /// dual then primal pivots if it is dual-feasible (assumed, not tested,
  /// when `dual_feasible` is set), and the cost-shifting dual phase 1
  /// otherwise. kIterationLimit means the basis could not be reused and the
  /// caller should solve cold.
  [[nodiscard]] SolveStatus reoptimize(const SolverOptions& options, bool dual_feasible);

  /// Appends one inequality constraint (model index `index`) with a fresh
  /// slack that joins the basic set; the next reoptimize() refactorises.
  void append_row(const Constraint& constraint, std::size_t index);

  /// Warm row deletion: excises the given standard rows (== model constraint
  /// indices, sorted ascending) together with their slack/artificial columns
  /// while keeping the basic set — the dropped rows' unit columns must be
  /// basic (true for rows strictly loose at the current vertex), so the
  /// remaining basis stays nonsingular, the surviving basic values are
  /// untouched and the vertex stays optimal for the reduced model. Returns
  /// false (leaving this core unusable) when some row has no basic unit
  /// column or the reduced basis fails to refactorise.
  [[nodiscard]] bool delete_rows(const std::vector<std::size_t>& rows);

  /// Extracts the solution at the current basis into `out` (values, duals,
  /// iteration counters). `model` must be the loaded model.
  void extract(const LpModel& model, LpSolution& out) const;

  /// The warm identity: with the loaded model, the basic set and the at-upper
  /// flags determine the next reoptimize() of an identity translation
  /// completely. Without values; see vertex().
  [[nodiscard]] LpWarmState identity() const {
    return LpWarmState{n_struct_, relations_, basis_.basic(), at_upper_, {}};
  }

  /// The identity's structural values (unscaled, clamped to their bounds as
  /// extract() does), which a translated start crosses over from. Solved
  /// from a fresh factorisation of the basic set, not read from the running
  /// basic solution, so they are a pure function of the loaded model and the
  /// identity, as the continuation is: a twin that imported this identity and
  /// reoptimised it computes the same bits. Empty if the set does not
  /// factorise.
  [[nodiscard]] std::vector<double> vertex() const {
    Basis fresh;
    fresh.set_basic(basis_.basic());
    if (!fresh.refactor(cols_)) return {};
    std::vector<double> rhs = b_exact_;
    std::vector<double> values(n_struct_, 0.0);
    for (std::size_t j = 0; j < num_cols_; ++j) {
      if (!at_upper_[j]) continue;
      cols_.axpy_column(j, -upper_[j], rhs);
      if (j < n_struct_) values[j] = upper_[j];
    }
    const std::vector<double> xb = fresh.ftran(rhs);
    const auto& basic = basis_.basic();
    for (std::size_t i = 0; i < m_; ++i) {
      if (basic[i] < n_struct_ && std::isfinite(xb[i])) {
        values[basic[i]] = std::clamp(xb[i], 0.0, upper_[basic[i]]);
      }
    }
    for (std::size_t j = 0; j < n_struct_; ++j) values[j] *= col_scale_[j];
    return values;
  }

  [[nodiscard]] std::size_t iterations() const { return iterations_; }

  /// Adds the deficient basis positions repaired and the refactorisations
  /// since the last harvest to `stats`, and resets both counters.
  void harvest(LpSolverStats& stats) {
    stats.basis_repairs += std::exchange(basis_repairs_, 0);
    stats.refactorisations += std::exchange(refactorisations_, 0);
  }

 private:
  /// B^-1 A_col via the sparse ftran.
  [[nodiscard]] std::vector<double> ftran_column(std::size_t col) const {
    return basis_.ftran(cols_.column(col));
  }
  [[nodiscard]] bool refactor();
  void inject_basis_fault();
  void maybe_corrupt_eta();
  void refresh_xb();
  /// Every basic value within its bounds (to kFeasTol).
  [[nodiscard]] bool primal_feasible() const;
  void rebuild_basis_flags();
  void set_at_upper(std::size_t col, bool value);
  [[nodiscard]] std::vector<double> basic_costs(bool phase1) const;
  /// d_ = c - Aᵀy with y = B^-T c_B under the phase's costs: one btran and
  /// one row-wise Aᵀ pass.
  void price(bool phase1);
  /// alpha_ = ρᵀA for ρ = row `pos` of B^-1, formed row-wise over ρ's
  /// nonzero rows.
  void form_pivot_row(std::size_t pos);
  /// The basis change in which `enter` (ftran'd column `w`) replaces the
  /// basic column of row `leave`: every other basic value moves by
  /// −step·w_i and the entering one becomes `entering_value`; the reduced
  /// costs update from the pivot row alpha_ (formed by the caller) with
  /// pivot element `pivot`: d_j −= θ·α_j, θ = d_enter / pivot, then
  /// d_enter = 0 and d_leaving = −θ (basic entries of d_ drift unread; a
  /// column's entry is set when it leaves the basis). The leaving column
  /// rests at its upper bound when `leave_at_upper`, else at its lower; the
  /// basis takes one Forrest–Tomlin update, which the fault injector may
  /// corrupt, and the pivot counts. Returns the leaving column.
  std::size_t change_basis(std::size_t leave, std::size_t enter, const std::vector<double>& w,
                           double step, double entering_value, double pivot,
                           bool leave_at_upper);
  [[nodiscard]] double phase_objective(bool phase1) const;
  /// Primal devex weights from the pivot row alpha_.
  void update_primal_devex(std::size_t enter, std::size_t leaving_col, double pivot_alpha);
  void update_dual_devex(const std::vector<double>& w, std::size_t leave);
  /// Primal simplex under the phase's costs. Phase 2 stops with kInfeasible
  /// when a refactorisation's repair left the vertex primal infeasible.
  [[nodiscard]] SolveStatus run_primal(bool phase1, const SolverOptions& options);
  [[nodiscard]] SolveStatus run_dual(const SolverOptions& options);
  /// Phase 2 from the installed basis: restore_feasibility() first when the
  /// vertex is primal infeasible, then primal pivots; again from the
  /// restored part whenever a repair inside the primal pivots leaves the
  /// vertex infeasible.
  [[nodiscard]] SolveStatus run_phase2(const SolverOptions& options, bool dual_feasible);
  /// Dual pivots to a primal-feasible vertex: plain when the basis is dual
  /// feasible (assumed, not tested, when `dual_feasible` is set), under
  /// shifted costs (a dual phase 1) otherwise.
  [[nodiscard]] SolveStatus restore_feasibility(const SolverOptions& options, bool dual_feasible);
  /// Every kResidualInterval basis changes: true when the basic values no
  /// longer solve B·x_B = b − Σ u_j A_j (over the columns at upper) to
  /// kResidualTol. The check reads the true basis matrix, so it sees a
  /// factor that is wrong but consistent with itself, which the update's
  /// diagonal check cannot.
  [[nodiscard]] bool basic_values_drifted();
  /// Crossover from the previous vertex translate() kept: every nonbasic
  /// column holding a value strictly above its lower bound there (a demoted
  /// or repaired-away column, or the unit column of a row a departed column
  /// held tight) starts at that value, so the basic solution is the previous
  /// vertex; each such column then moves, in column order and in the
  /// direction its reduced cost prefers, until it reaches a bound or a basic
  /// column does and it pivots in. The result is a basis whose vertex is the
  /// previous one moved along the freed directions only. A due
  /// refactorisation between moves keeps the basic values, which hold the
  /// remaining columns' starts. Returns false when that refactorisation
  /// fails.
  [[nodiscard]] bool cross_over();
  /// Pivots each artificial left basic after phase 1 out for a structural
  /// column where one has a usable pivot. Returns false when a due
  /// refactorisation fails.
  [[nodiscard]] bool drive_out_artificials();
  /// Past phase 1 every artificial column is fixed at zero (upper bound 0),
  /// so one left basic at a positive value — a warm basis whose
  /// coefficients moved, or a pivot that would grow it — is primal
  /// infeasible instead of silently breaking its row.
  void fix_artificials();
  [[nodiscard]] SolveStatus finish_perturbed(const SolverOptions& options);

  // Structural-column metadata (a StandardForm with rows cleared).
  internal::StandardForm skel_;
  SparseMatrix cols_;               // constraint matrix, one sparse column per variable
  std::vector<Relation> relations_;  // normalised, per row
  std::vector<internal::RowRef> row_refs_;
  // Per row: the unit (slack/surplus/artificial) column ids created for it —
  // the columns that must go with the row on warm deletion.
  std::vector<std::vector<std::size_t>> row_units_;
  std::vector<double> b_;        // working rhs (scaled, possibly perturbed)
  std::vector<double> b_exact_;  // exact scaled rhs
  std::vector<double> row_scale_;
  std::vector<double> col_scale_;  // structural columns
  std::vector<double> cost_;       // phase-2 cost per column (scaled, min sense)
  std::vector<double> upper_;      // scaled upper bound per column (kInf if none)
  std::vector<char> artificial_;   // per column
  std::vector<char> in_basis_;     // per column
  std::vector<char> at_upper_;     // per column; only ever set while nonbasic
  std::size_t n_struct_ = 0;
  std::size_t num_cols_ = 0;
  std::size_t m_ = 0;
  std::size_t num_at_upper_ = 0;
  bool any_artificial_ = false;
  bool perturbed_ = false;
  bool scaling_ = false;
  // The previous vertex's structural values (scaled to this core) that
  // translate() keeps for the next reoptimize()'s cross_over(); empty
  // otherwise.
  std::vector<double> start_;

  // Devex reference weights: per column for the primal entering choice, per
  // row for the dual leaving-row choice. Reset to 1 at each phase entry.
  std::vector<double> primal_weights_;
  std::vector<double> dual_weights_;

  // Reduced costs of the running phase (see price / change_basis)
  // and the current pivot row (form_pivot_row), one entry per column.
  std::vector<double> d_;
  std::vector<double> alpha_;

  Basis basis_;
  std::vector<double> xb_;

  std::size_t iterations_ = 0;
  std::size_t dual_iterations_ = 0;
  std::size_t basis_repairs_ = 0;
  std::size_t refactorisations_ = 0;
  // Basis changes since the last residual check or refactorisation.
  std::size_t unchecked_changes_ = 0;
  FaultInjector* injector_ = nullptr;  // non-owning; from SolverOptions
};

void LpSolver::Core::load(const LpModel& model, const SolverOptions& options) {
  internal::StandardForm sf =
      internal::build_standard_form(model, /*native_upper_bounds=*/true);
  scaling_ = options.enable_scaling;
  internal::equilibrate(sf, scaling_, row_scale_, col_scale_);

  m_ = sf.rows.size();
  n_struct_ = sf.columns.size();
  for (const internal::StandardRow& row : sf.rows) {
    relations_.push_back(row.relation);
    row_refs_.push_back(row.ref);
    b_.push_back(row.rhs);
  }
  row_units_ = unit_columns(n_struct_, relations_);
  num_cols_ = n_struct_;
  for (const auto& units : row_units_) num_cols_ += units.size();

  cost_.assign(num_cols_, 0.0);
  std::copy(sf.cost.begin(), sf.cost.end(), cost_.begin());
  upper_.assign(num_cols_, kInf);
  std::copy(sf.col_upper.begin(), sf.col_upper.end(), upper_.begin());
  artificial_.assign(num_cols_, 0);
  in_basis_.assign(num_cols_, 0);
  at_upper_.assign(num_cols_, 0);
  num_at_upper_ = 0;

  cols_.reset(m_);
  for (std::size_t j = 0; j < num_cols_; ++j) cols_.add_column();

  // The initial basis is each row's last unit column: a <= row's slack, a
  // >= row's artificial (beside its surplus, coefficient −1) or an = row's.
  std::vector<std::size_t> initial_basis(m_);
  any_artificial_ = false;
  for (std::size_t i = 0; i < m_; ++i) {
    // Rows are visited in order, so every column's entries stay row-sorted.
    for (const internal::RowEntry& entry : sf.rows[i].entries) {
      cols_.add_entry(entry.col, i, entry.value);
    }
    const std::vector<std::size_t>& units = row_units_[i];
    cols_.add_entry(units.front(), i, relations_[i] == Relation::kGreaterEqual ? -1.0 : 1.0);
    if (units.size() == 2) cols_.add_entry(units.back(), i, 1.0);
    initial_basis[i] = units.back();
    if (relations_[i] != Relation::kLessEqual) {
      artificial_[units.back()] = 1;
      any_artificial_ = true;
    }
  }
  cols_.index_rows();

  // Anti-degeneracy rhs perturbation, mirroring the tableau path but applied
  // only to <= rows: relaxing them strictly enlarges the feasible region, so
  // it can neither manufacture infeasibility nor hide it. Equality and >=
  // rows stay exact. The exact rhs is restored (and the optimum repaired by
  // dual pivots) in finish_perturbed().
  b_exact_ = b_;
  std::uint64_t mix = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < m_; ++i) {
    mix ^= mix << 13;
    mix ^= mix >> 7;
    mix ^= mix << 17;
    if (relations_[i] != Relation::kLessEqual) continue;
    const double frac = 0.5 + 0.5 * static_cast<double>(mix >> 11) * 0x1.0p-53;
    b_[i] += 1e-7 * (1.0 + b_[i]) * frac;
    perturbed_ = true;
  }

  // Keep the structural metadata for incremental rows; drop the bulky parts.
  skel_ = std::move(sf);
  skel_.rows.clear();

  basis_.set_basic(std::move(initial_basis));
  for (const std::size_t j : basis_.basic()) in_basis_[j] = 1;
  xb_ = b_;
  primal_weights_.assign(num_cols_, 1.0);
  dual_weights_.assign(m_, 1.0);

  iterations_ = dual_iterations_ = 0;
  basis_repairs_ = refactorisations_ = 0;
  injector_ = options.fault_injector;
}

void LpSolver::Core::inject_basis_fault() {
  // Duplicate one basic column: the basis matrix turns structurally singular,
  // so the next refactorisation reports a deficiency and the repair loop
  // below must patch it — the exact path real update drift exercises.
  if (m_ < 2) return;
  std::vector<std::size_t> patched = basis_.basic();
  for (std::size_t a = 0; a + 1 < m_; ++a) {
    if (patched[a] != patched[a + 1]) {
      patched[a] = patched[a + 1];
      basis_.set_basic(std::move(patched));
      rebuild_basis_flags();
      injector_->note_basis_fault();
      return;
    }
  }
}

void LpSolver::Core::maybe_corrupt_eta() {
  if (injector_ != nullptr && injector_->roll_eta_corruption() &&
      basis_.corrupt_last_eta(kEtaCorruptionFactor)) {
    injector_->note_eta_corruption();
  }
}

bool LpSolver::Core::refactor() {
  ++refactorisations_;
  unchecked_changes_ = 0;
  if (injector_ != nullptr && injector_->roll_basis_fault()) inject_basis_fault();
  if (basis_.refactor(cols_)) return true;
  // Basis repair. A refactorisation can come up deficient when accumulated
  // update drift let a pivot adopt a column the true basis does not admit
  // (the computed pivot element was noise). Patch every deficient position
  // with a unit (slack/artificial) column of its uncovered row — which
  // restores structural nonsingularity — and refactorise again; the evicted
  // columns become nonbasic at lower bound and the caller's refresh/phase
  // logic re-establishes the vertex.
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto& deficiency = basis_.deficiency();
    if (deficiency.empty()) return false;
    std::vector<std::size_t> patched = basis_.basic();
    std::size_t repairs = 0;
    for (const auto& [pos, row] : deficiency) {
      for (const std::size_t c : row_units_[row]) {
        if (!in_basis_[c]) {
          patched[pos] = c;
          in_basis_[c] = 1;  // consumed; rebuilt below either way
          ++repairs;
          break;
        }
      }
    }
    if (repairs == 0) {
      rebuild_basis_flags();
      return false;
    }
    basis_repairs_ += repairs;
    basis_.set_basic(std::move(patched));
    rebuild_basis_flags();
    if (basis_.refactor(cols_)) return true;
  }
  rebuild_basis_flags();
  return false;
}

void LpSolver::Core::refresh_xb() {
  if (num_at_upper_ == 0) {
    xb_ = basis_.ftran(b_);
    return;
  }
  // x_B = B^-1 (b - Σ_{j nonbasic at upper} u_j A_j).
  std::vector<double> rhs = b_;
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (at_upper_[j]) cols_.axpy_column(j, -upper_[j], rhs);
  }
  xb_ = basis_.ftran(rhs);
}

bool LpSolver::Core::primal_feasible() const {
  const auto& basic = basis_.basic();
  for (std::size_t i = 0; i < m_; ++i) {
    if (xb_[i] < -kFeasTol || xb_[i] > upper_[basic[i]] + kFeasTol) return false;
  }
  return true;
}

void LpSolver::Core::rebuild_basis_flags() {
  std::fill(in_basis_.begin(), in_basis_.end(), 0);
  for (const std::size_t j : basis_.basic()) in_basis_[j] = 1;
}

void LpSolver::Core::set_at_upper(std::size_t col, bool value) {
  // A column of zero width (an artificial past phase 1, or a structural
  // column with lower = upper) rests at lower.
  if (value && upper_[col] == 0.0) value = false;
  if (static_cast<bool>(at_upper_[col]) == value) return;
  at_upper_[col] = value ? 1 : 0;
  num_at_upper_ += value ? 1 : static_cast<std::size_t>(-1);
}

std::vector<double> LpSolver::Core::basic_costs(bool phase1) const {
  std::vector<double> cb(m_, 0.0);
  const auto& basic = basis_.basic();
  for (std::size_t i = 0; i < m_; ++i) {
    cb[i] = phase1 ? (artificial_[basic[i]] ? 1.0 : 0.0) : cost_[basic[i]];
  }
  return cb;
}

void LpSolver::Core::price(bool phase1) {
  cols_.transpose_product(basis_.btran(basic_costs(phase1)), d_);
  for (std::size_t j = 0; j < num_cols_; ++j) {
    const double cost = phase1 ? (artificial_[j] ? 1.0 : 0.0) : cost_[j];
    d_[j] = cost - d_[j];
  }
}

void LpSolver::Core::form_pivot_row(std::size_t pos) {
  cols_.transpose_product(basis_.btran_unit(pos), alpha_);
}

std::size_t LpSolver::Core::change_basis(std::size_t leave, std::size_t enter,
                                         const std::vector<double>& w, double step,
                                         double entering_value, double pivot,
                                         bool leave_at_upper) {
  for (std::size_t i = 0; i < m_; ++i) {
    if (i != leave) xb_[i] -= step * w[i];
  }
  const std::size_t leaving_col = basis_.basic()[leave];
  xb_[leave] = entering_value;
  const double theta = d_[enter] / pivot;
  for (std::size_t j = 0; j < num_cols_; ++j) d_[j] -= theta * alpha_[j];
  d_[enter] = 0.0;
  d_[leaving_col] = -theta;
  in_basis_[leaving_col] = 0;
  in_basis_[enter] = 1;
  set_at_upper(enter, false);
  set_at_upper(leaving_col, leave_at_upper);
  basis_.pivot(leave, enter, cols_.column(enter), w[leave]);
  maybe_corrupt_eta();
  ++iterations_;
  ++unchecked_changes_;
  return leaving_col;
}

bool LpSolver::Core::basic_values_drifted() {
  if (unchecked_changes_ < kResidualInterval) return false;
  unchecked_changes_ = 0;
  std::vector<double> residual = b_;
  if (num_at_upper_ != 0) {
    for (std::size_t j = 0; j < num_cols_; ++j) {
      if (at_upper_[j]) cols_.axpy_column(j, -upper_[j], residual);
    }
  }
  const auto& basic = basis_.basic();
  for (std::size_t i = 0; i < m_; ++i) {
    if (xb_[i] != 0.0) cols_.axpy_column(basic[i], -xb_[i], residual);
  }
  for (std::size_t i = 0; i < m_; ++i) {
    if (!(std::abs(residual[i]) <= kResidualTol * (1.0 + std::abs(b_[i])))) return true;
  }
  return false;
}

double LpSolver::Core::phase_objective(bool phase1) const {
  const std::vector<double> cb = basic_costs(phase1);
  double acc = 0.0;
  for (std::size_t i = 0; i < m_; ++i) acc += cb[i] * xb_[i];
  if (!phase1 && num_at_upper_ != 0) {
    for (std::size_t j = 0; j < num_cols_; ++j) {
      if (at_upper_[j]) acc += cost_[j] * upper_[j];
    }
  }
  return acc;
}

void LpSolver::Core::update_primal_devex(std::size_t enter, std::size_t leaving_col,
                                         double pivot_alpha) {
  if (std::abs(pivot_alpha) < 1e-12) return;
  const double gq = primal_weights_[enter];
  const double inv2 = 1.0 / (pivot_alpha * pivot_alpha);
  double biggest = 1.0;
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (in_basis_[j] || j == leaving_col) continue;
    const double alpha = alpha_[j];
    if (alpha != 0.0) {
      const double candidate = alpha * alpha * inv2 * gq;
      if (candidate > primal_weights_[j]) primal_weights_[j] = candidate;
    }
    biggest = std::max(biggest, primal_weights_[j]);
  }
  primal_weights_[leaving_col] = std::max(gq * inv2, 1.0);
  if (biggest > kDevexReset) {
    std::fill(primal_weights_.begin(), primal_weights_.end(), 1.0);
  }
}

void LpSolver::Core::update_dual_devex(const std::vector<double>& w, std::size_t leave) {
  const double wr = w[leave];
  if (std::abs(wr) < 1e-12) return;
  const double tr = dual_weights_[leave];
  const double inv2 = 1.0 / (wr * wr);
  double biggest = 1.0;
  for (std::size_t i = 0; i < m_; ++i) {
    if (i == leave || w[i] == 0.0) continue;
    const double candidate = w[i] * w[i] * inv2 * tr;
    if (candidate > dual_weights_[i]) dual_weights_[i] = candidate;
    biggest = std::max(biggest, dual_weights_[i]);
  }
  dual_weights_[leave] = std::max(tr * inv2, 1.0);
  if (biggest > kDevexReset) {
    std::fill(dual_weights_.begin(), dual_weights_.end(), 1.0);
  }
}

SolveStatus LpSolver::Core::run_primal(bool phase1, const SolverOptions& options) {
  constexpr double tol = internal::kPricingTol;
  std::size_t stall = 0;
  bool bland = false;
  double last_objective = phase_objective(phase1);
  std::fill(primal_weights_.begin(), primal_weights_.end(), 1.0);
  // d_ is priced at entry, after every refactorisation and before an optimal
  // exit; every basis change in between updates it from the pivot row.
  bool priced = false;
  bool fresh = false;  // priced, and no basis change has updated d_ since
  while (true) {
    if (iterations_ >= internal::iteration_cap(m_, num_cols_)) return SolveStatus::kIterationLimit;
    if (basis_.refactor_due() || basic_values_drifted()) {
      const std::size_t repairs = basis_repairs_;
      if (!refactor()) return SolveStatus::kIterationLimit;
      refresh_xb();
      priced = false;
      // A repaired basis can put basic values out of bounds; phase 2 pivots
      // only between feasible vertices, so it hands such a vertex back.
      if (!phase1 && basis_repairs_ != repairs && !primal_feasible()) {
        return SolveStatus::kInfeasible;
      }
    }
    if (!priced) {
      price(phase1);
      priced = fresh = true;
    }

    // Entering column and direction: a column at its lower bound enters
    // upward on d < 0, a column at its upper bound enters downward on d > 0.
    // Devex scores d^2 / weight; under Bland the first eligible enters.
    // A column of zero width (an artificial past phase 1, or a structural
    // column with lower = upper) cannot move, so it never enters.
    std::size_t enter = SIZE_MAX;
    double dir = 1.0;
    double best_score = 0.0;
    for (std::size_t j = 0; j < num_cols_; ++j) {
      if (in_basis_[j] || upper_[j] == 0.0) continue;
      const double dj = d_[j];
      double candidate_dir;
      if (!at_upper_[j] && dj < -tol) {
        candidate_dir = 1.0;
      } else if (at_upper_[j] && dj > tol) {
        candidate_dir = -1.0;
      } else {
        continue;
      }
      const double score = dj * dj / primal_weights_[j];
      if (enter == SIZE_MAX || score > best_score) {
        best_score = score;
        enter = j;
        dir = candidate_dir;
        if (bland) break;
      }
    }
    if (enter == SIZE_MAX) {
      if (fresh) return SolveStatus::kOptimal;
      // The updated d prices out; only a fresh one may declare the optimum.
      priced = false;
      continue;
    }

    const std::vector<double> w = ftran_column(enter);

    // Bounded ratio test: a basic variable may block by reaching its lower
    // bound (direction-adjusted coefficient > 0) or its finite upper bound
    // (coefficient < 0); near-ties are broken by pivot magnitude (stability)
    // or smallest basic index (Bland, termination); loose-tolerance fallback
    // before declaring unboundedness. The entering column's own finite range
    // allows a pivot-free bound flip.
    const double t_bound = upper_[enter];
    std::size_t leave = SIZE_MAX;
    bool leave_at_upper = false;
    double best_ratio = std::numeric_limits<double>::infinity();
    double best_pivot = 0.0;
    const auto& basic = basis_.basic();
    for (std::size_t i = 0; i < m_; ++i) {
      const double a = dir * w[i];
      double ratio;
      bool to_upper;
      if (a > kPivotTol) {
        ratio = std::max(0.0, xb_[i]) / a;
        to_upper = false;
      } else if (a < -kPivotTol && std::isfinite(upper_[basic[i]])) {
        ratio = std::max(0.0, upper_[basic[i]] - xb_[i]) / -a;
        to_upper = true;
      } else {
        continue;
      }
      const double tie_band = 1e-9 * (1.0 + ratio);
      if (leave == SIZE_MAX || ratio < best_ratio - tie_band) {
        best_ratio = ratio;
        leave = i;
        leave_at_upper = to_upper;
        best_pivot = std::abs(a);
      } else if (ratio < best_ratio + tie_band) {
        if (bland ? basic[i] < basic[leave] : std::abs(a) > best_pivot) {
          best_ratio = std::min(best_ratio, ratio);
          leave = i;
          leave_at_upper = to_upper;
          best_pivot = std::abs(a);
        }
      }
    }
    if (leave == SIZE_MAX && !std::isfinite(t_bound)) {
      for (std::size_t i = 0; i < m_; ++i) {
        const double a = dir * w[i];
        double ratio;
        bool to_upper;
        if (a > tol) {
          ratio = std::max(0.0, xb_[i]) / a;
          to_upper = false;
        } else if (a < -tol && std::isfinite(upper_[basic[i]])) {
          ratio = std::max(0.0, upper_[basic[i]] - xb_[i]) / -a;
          to_upper = true;
        } else {
          continue;
        }
        if (ratio < best_ratio) {
          best_ratio = ratio;
          leave = i;
          leave_at_upper = to_upper;
        }
      }
    }
    if (leave == SIZE_MAX && !std::isfinite(t_bound)) {
      return phase1 ? SolveStatus::kInfeasible : SolveStatus::kUnbounded;
    }

    if (std::isfinite(t_bound) && (leave == SIZE_MAX || t_bound <= best_ratio)) {
      // Bound flip: the entering variable crosses its whole range without any
      // basic variable blocking — no basis change, just the statuses (d
      // stays as it is).
      for (std::size_t i = 0; i < m_; ++i) xb_[i] -= t_bound * dir * w[i];
      set_at_upper(enter, dir > 0.0);
      ++iterations_;
    } else {
      form_pivot_row(leave);  // pre-pivot row
      const double t = best_ratio;
      const std::size_t leaving_col =
          change_basis(leave, enter, w, t * dir, dir > 0.0 ? t : upper_[enter] - t, w[leave],
                       leave_at_upper);
      fresh = false;
      if (!bland) update_primal_devex(enter, leaving_col, w[leave]);
    }

    const double objective = phase_objective(phase1);
    if (objective >= last_objective - tol) {
      if (++stall >= options.stall_limit) bland = true;
    } else {
      stall = 0;
      bland = false;
    }
    last_objective = objective;
  }
}

SolveStatus LpSolver::Core::run_dual(const SolverOptions& options) {
  constexpr double tol = internal::kPricingTol;
  std::size_t stall = 0;
  bool bland = false;
  double last_infeasibility = std::numeric_limits<double>::infinity();
  std::fill(dual_weights_.begin(), dual_weights_.end(), 1.0);
  // d_ is priced at the first pivot, so a run that finds no violated row
  // pays nothing, and again after every refactorisation.
  bool priced = false;
  while (true) {
    if (iterations_ >= internal::iteration_cap(m_, num_cols_)) return SolveStatus::kIterationLimit;
    if (basis_.refactor_due() || basic_values_drifted()) {
      if (!refactor()) return SolveStatus::kIterationLimit;
      refresh_xb();
      priced = false;
    }

    // Leaving row: a basic variable below its lower bound (leaves at lower)
    // or above its finite upper bound (leaves at upper). Devex scores
    // violation^2 / weight; under Bland the first violating row leaves. The
    // infeasibility sum always covers every row — it feeds the stall
    // detector, which must not flap just because Bland picked an early row.
    const auto& basic = basis_.basic();
    std::size_t leave = SIZE_MAX;
    bool above = false;
    std::size_t first_violating = SIZE_MAX;
    bool first_above = false;
    double best_score = 0.0;
    double infeasibility = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      const double ub = upper_[basic[i]];
      double delta;
      bool is_above;
      if (xb_[i] < -kFeasTol) {
        delta = -xb_[i];
        is_above = false;
      } else if (std::isfinite(ub) && xb_[i] > ub + kFeasTol) {
        delta = xb_[i] - ub;
        is_above = true;
      } else {
        continue;
      }
      infeasibility += delta;
      if (first_violating == SIZE_MAX) {
        first_violating = i;
        first_above = is_above;
      }
      const double score = delta * delta / dual_weights_[i];
      if (leave == SIZE_MAX || score > best_score) {
        best_score = score;
        leave = i;
        above = is_above;
      }
    }
    if (bland && first_violating != SIZE_MAX) {
      leave = first_violating;
      above = first_above;
    }
    if (leave == SIZE_MAX) return SolveStatus::kOptimal;

    if (!priced) {
      price(/*phase1=*/false);
      priced = true;
    }
    form_pivot_row(leave);

    // Dual ratio test over both bound directions. sigma = +1 when the
    // leaving variable exits at its lower bound (its basic value must rise),
    // -1 when it exits at its upper bound. An at-lower column is eligible
    // when sigma*alpha < 0 (it will increase), an at-upper column when
    // sigma*alpha > 0 (it will decrease); either way the entering column
    // minimises |d| / |alpha|, keeping dual feasibility. Ties are broken by
    // pivot magnitude, or smallest index under Bland. Zero-width columns
    // cannot absorb a displacement, so they never enter.
    const double sigma = above ? -1.0 : 1.0;
    const auto pick_entering = [&](double pivot_tol) {
      std::size_t enter = SIZE_MAX;
      double best_ratio = std::numeric_limits<double>::infinity();
      double best_pivot = 0.0;
      for (std::size_t j = 0; j < num_cols_; ++j) {
        if (in_basis_[j] || upper_[j] == 0.0) continue;
        const double a = sigma * alpha_[j];
        double ratio;
        if (!at_upper_[j]) {
          if (a >= -pivot_tol) continue;
          ratio = std::max(0.0, d_[j]) / -a;
        } else {
          if (a <= pivot_tol) continue;
          ratio = std::max(0.0, -d_[j]) / a;
        }
        const double tie_band = 1e-9 * (1.0 + ratio);
        if (enter == SIZE_MAX || ratio < best_ratio - tie_band) {
          best_ratio = ratio;
          enter = j;
          best_pivot = std::abs(a);
        } else if (ratio < best_ratio + tie_band) {
          if (bland ? j < enter : std::abs(a) > best_pivot) {
            best_ratio = std::min(best_ratio, ratio);
            enter = j;
            best_pivot = std::abs(a);
          }
        }
      }
      return enter;
    };
    std::size_t enter = pick_entering(kPivotTol);
    if (enter == SIZE_MAX) enter = pick_entering(tol);
    if (enter == SIZE_MAX) return SolveStatus::kInfeasible;

    const std::vector<double> w = ftran_column(enter);
    if (std::abs(w[leave]) < tol) {
      // Numerical disagreement between alpha and the ftran column; refactor
      // and retry, giving up if it persists.
      if (!refactor()) return SolveStatus::kIterationLimit;
      refresh_xb();
      priced = false;
      if (++stall >= options.stall_limit) return SolveStatus::kIterationLimit;
      continue;
    }

    // The leaving basic moves to its violated bound; the entering variable
    // absorbs the displacement from whichever bound it rested at.
    const double target = above ? upper_[basic[leave]] : 0.0;
    const double step = (xb_[leave] - target) / w[leave];
    if (!bland) update_dual_devex(w, leave);
    change_basis(leave, enter, w, step, (at_upper_[enter] ? upper_[enter] : 0.0) + step,
                 alpha_[enter], above);
    ++dual_iterations_;

    if (infeasibility >= last_infeasibility - tol) {
      if (++stall >= options.stall_limit) bland = true;
    } else {
      stall = 0;
      bland = false;
    }
    last_infeasibility = infeasibility;
  }
}

bool LpSolver::Core::drive_out_artificials() {
  const auto& basic = basis_.basic();
  for (std::size_t i = 0; i < m_; ++i) {
    if (!artificial_[basic[i]]) continue;
    if (basis_.refactor_due()) {
      if (!refactor()) return false;
      refresh_xb();
      if (!artificial_[basic[i]]) continue;  // a repair replaced it
    }
    form_pivot_row(i);
    // Pick the largest structural |alpha| among at-lower nonbasic columns.
    std::size_t enter = SIZE_MAX;
    double best = 1e-8;
    for (std::size_t j = 0; j < num_cols_; ++j) {
      if (in_basis_[j] || artificial_[j] || at_upper_[j]) continue;
      if (std::abs(alpha_[j]) > best) {
        best = std::abs(alpha_[j]);
        enter = j;
      }
    }
    if (enter == SIZE_MAX) continue;  // redundant row; artificial stays ~0
    const std::vector<double> w = ftran_column(enter);
    if (std::abs(w[i]) < 1e-10) continue;
    const double t = xb_[i] / w[i];
    for (std::size_t r = 0; r < m_; ++r) {
      if (r != i) xb_[r] -= t * w[r];
    }
    xb_[i] = t;
    in_basis_[basis_.basic()[i]] = 0;
    in_basis_[enter] = 1;
    basis_.pivot(i, enter, cols_.column(enter), w[i]);
  }
  return true;
}

void LpSolver::Core::fix_artificials() {
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (artificial_[j]) upper_[j] = 0.0;
  }
}

SolveStatus LpSolver::Core::finish_perturbed(const SolverOptions& options) {
  if (!perturbed_) return SolveStatus::kOptimal;
  b_ = b_exact_;
  perturbed_ = false;
  // B^-1 does not depend on the rhs, so no refactorisation is needed here —
  // only the basic values move. A due refactorisation still bounds drift.
  if (basis_.refactor_due() && !refactor()) return SolveStatus::kIterationLimit;
  refresh_xb();
  if (primal_feasible()) return SolveStatus::kOptimal;
  // Restoring the exact rhs tightened the relaxed <= rows: the basis stays
  // dual-feasible, so a few dual pivots repair primal feasibility. The
  // repaired vertex then passes the primal pricing check, as in reoptimize().
  return run_phase2(options, /*dual_feasible=*/true);
}

SolveStatus LpSolver::Core::run_cold(const SolverOptions& options) {
  if (m_ == 0) {
    // No constraints: each column rests at whichever bound its cost prefers;
    // a negative-cost column without a finite upper bound is unbounded.
    for (std::size_t j = 0; j < num_cols_; ++j) {
      if (cost_[j] < -internal::kPricingTol) {
        if (!std::isfinite(upper_[j])) return SolveStatus::kUnbounded;
        set_at_upper(j, true);
      }
    }
    return SolveStatus::kOptimal;
  }
  if (any_artificial_) {
    const SolveStatus phase1 = run_primal(/*phase1=*/true, options);
    if (phase1 != SolveStatus::kOptimal) return phase1;
    if (phase_objective(/*phase1=*/true) > 1e-6) return SolveStatus::kInfeasible;
    if (!drive_out_artificials()) return SolveStatus::kIterationLimit;
    fix_artificials();
  }
  const SolveStatus phase2 = run_phase2(options, /*dual_feasible=*/false);
  if (phase2 != SolveStatus::kOptimal) return phase2;
  return finish_perturbed(options);
}

bool LpSolver::Core::translate(const LpWarmState& previous, const LpModelMap& map) {
  if (!well_formed(previous)) return false;
  if (map.empty()) return translate(previous, identity_map(previous));
  if (map.variables.size() != n_struct_ || map.constraints.size() != m_) return false;
  // from[c]: the previous column that new column c continues, or SIZE_MAX.
  std::vector<std::size_t> from(num_cols_, SIZE_MAX);
  std::vector<char> taken(previous.at_upper.size(), 0);
  const auto link = [&](std::size_t col, std::size_t prev) {
    if (taken[prev]) return false;
    taken[prev] = 1;
    from[col] = prev;
    return true;
  };
  for (std::size_t v = 0; v < n_struct_; ++v) {
    const std::size_t prev = map.variables[v];
    if (prev == LpModelMap::kNew) continue;
    if (prev >= previous.structural_columns || !link(v, prev)) return false;
  }
  const std::vector<Relation>& prev_relations = previous.relations;
  const std::vector<std::vector<std::size_t>> prev_units =
      unit_columns(previous.structural_columns, prev_relations);
  std::vector<char> row_taken(prev_relations.size(), 0);
  std::vector<char> new_row(m_, 1);
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t prev = map.constraints[i];
    if (prev == LpModelMap::kNew) continue;
    if (prev >= prev_relations.size() || row_taken[prev]) return false;
    row_taken[prev] = 1;
    // A row whose normalised relation flipped (its rhs changed sign) keeps
    // none of its old unit columns' statuses.
    if (prev_relations[prev] != relations_[i]) continue;
    new_row[i] = 0;
    for (std::size_t u = 0; u < row_units_[i].size(); ++u) {
      if (!link(row_units_[i][u], prev_units[prev][u])) return false;
    }
  }

  std::vector<std::size_t> to(previous.at_upper.size(), SIZE_MAX);
  for (std::size_t c = 0; c < num_cols_; ++c) {
    if (from[c] != SIZE_MAX) to[from[c]] = c;
  }
  std::vector<std::size_t> basic_set;
  std::vector<char> basic(num_cols_, 0);
  const auto make_basic = [&](std::size_t col) {
    basic_set.push_back(col);
    basic[col] = 1;
  };
  // Surviving basic columns keep their basis order, so an identity map
  // reproduces the previous basic set exactly.
  for (const std::size_t prev : previous.basic) {
    if (to[prev] != SIZE_MAX) make_basic(to[prev]);
  }
  for (std::size_t i = 0; i < m_; ++i) {
    if (new_row[i]) make_basic(row_units_[i].front());
  }
  // One basic column per row: pad uncovered rows with their first unit
  // column in row order, or demote surplus structural columns from the last
  // basis position. A departed basic column can still leave the set
  // singular; refactor() repairs that.
  for (std::size_t i = 0; i < m_ && basic_set.size() < m_; ++i) {
    const auto& units = row_units_[i];
    if (std::none_of(units.begin(), units.end(), [&](std::size_t c) { return basic[c] != 0; })) {
      make_basic(units.front());
    }
  }
  for (std::size_t p = basic_set.size(); p-- > 0 && basic_set.size() > m_;) {
    if (basic_set[p] < n_struct_) {
      basic_set.erase(basic_set.begin() + static_cast<std::ptrdiff_t>(p));
    }
  }
  // Rows carrying two basic unit columns (a >= row's surplus and
  // artificial) can still leave a surplus.
  if (basic_set.size() > m_) basic_set.resize(m_);
  basis_.set_basic(std::move(basic_set));
  rebuild_basis_flags();
  // The nonbasic bound statuses are part of the vertex. A column basic in
  // either identity (demoted ones included), or whose bound is now infinite
  // (resting there would poison xb with non-finite values), rests at its
  // lower bound.
  num_at_upper_ = 0;
  for (std::size_t c = 0; c < num_cols_; ++c) {
    at_upper_[c] = from[c] != SIZE_MAX && !basic[c] && std::isfinite(upper_[c]) &&
                   previous.at_upper[from[c]];
    if (at_upper_[c]) ++num_at_upper_;
  }
  // Keep the previous vertex for cross_over(), unless the map is the identity.
  if (!is_identity(map, previous) && !previous.values.empty()) {
    start_.assign(n_struct_, 0.0);
    for (std::size_t v = 0; v < n_struct_; ++v) {
      if (from[v] != SIZE_MAX) start_[v] = previous.values[from[v]] / col_scale_[v];
    }
  }
  return true;
}

SolveStatus LpSolver::Core::reoptimize(const SolverOptions& options, bool dual_feasible) {
  iterations_ = dual_iterations_ = 0;
  // The perturbation exists to help cold starts through degenerate phase-1
  // vertices; a warm start lands near the optimum, so reoptimise exactly.
  b_ = b_exact_;
  perturbed_ = false;
  fix_artificials();
  // Always refactorise, even where the updated factor could be kept: the
  // continuation is then a pure function of the model and the identity
  // (basic set, at-upper flags, and the vertex a translated start keeps) —
  // the caller's model and the checkpointed identity — so a restored solver
  // pivots bit-identically to the uninterrupted one. An updated factor and a
  // fresh factorisation of the same basis differ in low bits; one sparse LU
  // per reoptimisation buys determinism across restarts.
  if (!refactor()) return SolveStatus::kIterationLimit;
  refresh_xb();
  if (!start_.empty() && !cross_over()) return SolveStatus::kIterationLimit;
  return run_phase2(options, dual_feasible);
}

SolveStatus LpSolver::Core::run_phase2(const SolverOptions& options, bool dual_feasible) {
  while (true) {
    if (!primal_feasible()) {
      const SolveStatus status = restore_feasibility(options, dual_feasible);
      if (status != SolveStatus::kOptimal) return status;
    }
    // Primal pivots polish what the dual pivots left (shifts, coefficient
    // changes or tolerance drift can leave the vertex slightly suboptimal).
    // They answer kInfeasible only when a repair left their vertex out of
    // bounds; nothing says the basis is still dual feasible then.
    const SolveStatus status = run_primal(/*phase1=*/false, options);
    if (status != SolveStatus::kInfeasible) return status;
    dual_feasible = false;
  }
}

SolveStatus LpSolver::Core::restore_feasibility(const SolverOptions& options,
                                                bool dual_feasible) {
  std::vector<std::pair<std::size_t, double>> shifts;
  if (!dual_feasible) {
    // A basis that is neither primal- nor dual-feasible comes from
    // simultaneous cost/coefficient and activity drift (e.g. a demand burst
    // rescaling both the objective and the envy rows). Classic cost-shifting
    // rescue (dual phase 1): temporarily shift each offending nonbasic cost
    // so the installed basis IS dual feasible, let the dual simplex restore
    // primal feasibility, then drop the shifts and polish with primal pivots
    // from the now-feasible vertex. Far cheaper than discarding the basis:
    // the vertex is near-optimal already.
    price(/*phase1=*/false);
    for (std::size_t j = 0; j < num_cols_; ++j) {
      if (in_basis_[j] || upper_[j] == 0.0) continue;
      if (at_upper_[j] ? d_[j] > 1e-7 : d_[j] < -1e-7) {
        shifts.push_back({j, d_[j]});
        cost_[j] -= d_[j];
      }
    }
  }
  const SolveStatus status = run_dual(options);
  for (const auto& [j, delta] : shifts) cost_[j] += delta;
  if (status != SolveStatus::kOptimal) {
    // Under shifted costs a non-optimal outcome says nothing definite about
    // the true problem; report iteration-limit so the caller cold-solves.
    return shifts.empty() ? status : SolveStatus::kIterationLimit;
  }
  return SolveStatus::kOptimal;
}

bool LpSolver::Core::cross_over() {
  // The previous vertex on this model: structural values as translated, and
  // each row's unit column at the value that satisfies the row (a >= row's
  // artificial at zero).
  std::vector<double> value(num_cols_, 0.0);
  std::vector<double> activity(m_, 0.0);
  for (std::size_t j = 0; j < n_struct_; ++j) {
    value[j] = start_[j];
    if (value[j] != 0.0) cols_.axpy_column(j, value[j], activity);
  }
  start_.clear();
  for (std::size_t i = 0; i < m_; ++i) {
    const double gap = b_[i] - activity[i];
    value[row_units_[i].front()] = relations_[i] == Relation::kGreaterEqual ? -gap : gap;
  }
  // A damaged checkpoint can hold finite values whose activities overflow;
  // such a point is no start, so the installed basis starts as it is.
  const auto finite = [](double v) { return std::isfinite(v); };
  if (!std::all_of(value.begin(), value.end(), finite)) return true;
  // Nonbasic columns above their lower bound there start at their value.
  std::vector<std::size_t> superbasic;
  std::vector<double> rhs = b_;
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (in_basis_[j]) continue;
    const double v = at_upper_[j] ? upper_[j] : std::min(value[j], upper_[j]);
    if (!at_upper_[j] && !(v > kFeasTol)) continue;
    cols_.axpy_column(j, -v, rhs);
    if (!at_upper_[j]) {
      superbasic.push_back(j);
      value[j] = v;
    }
  }
  if (superbasic.empty()) return true;
  xb_ = basis_.ftran(rhs);
  if (!std::all_of(xb_.begin(), xb_.end(), finite)) {
    refresh_xb();
    return true;
  }
  price(/*phase1=*/false);
  const auto& basic = basis_.basic();
  for (const std::size_t s : superbasic) {
    if (basis_.refactor_due()) {
      // Not refresh_xb(): the superbasic columns not yet moved hold their
      // starts only in xb_. A repair changes the basic set, so xb_ no longer
      // matches it; the rest of the start is then dropped.
      const std::size_t repairs = basis_repairs_;
      if (!refactor()) return false;
      if (basis_repairs_ != repairs) {
        refresh_xb();
        return true;
      }
    }
    // Direction: up if that lowers the cost (d < 0), else down to zero; up
    // without any bound in the way would be a ray, so go down then too.
    // Basic columns already outside their bounds do not block; the dual
    // pivots after this repair them.
    const std::vector<double> w = ftran_column(s);
    double dir = d_[s] < 0.0 ? 1.0 : -1.0;
    std::size_t leave = SIZE_MAX;
    bool leave_at_upper = false;
    double step = 0.0;
    const auto ratio_test = [&] {
      leave = SIZE_MAX;
      step = dir > 0.0 ? upper_[s] - value[s] : value[s];
      for (std::size_t i = 0; i < m_; ++i) {
        const double a = dir * w[i];
        const double ub = upper_[basic[i]];
        double ratio;
        bool to_upper;
        if (a > kPivotTol && xb_[i] >= -kFeasTol) {
          ratio = std::max(0.0, xb_[i]) / a;
          to_upper = false;
        } else if (a < -kPivotTol && std::isfinite(ub) && xb_[i] <= ub + kFeasTol) {
          ratio = std::max(0.0, ub - xb_[i]) / -a;
          to_upper = true;
        } else {
          continue;
        }
        if (ratio < step) {
          step = ratio;
          leave = i;
          leave_at_upper = to_upper;
        }
      }
    };
    ratio_test();
    if (!std::isfinite(step)) {
      dir = -1.0;
      ratio_test();
    }
    if (leave == SIZE_MAX) {
      // It reached its own bound first.
      for (std::size_t i = 0; i < m_; ++i) xb_[i] -= step * dir * w[i];
      set_at_upper(s, dir > 0.0);
      continue;
    }
    form_pivot_row(leave);
    change_basis(leave, s, w, step * dir, value[s] + dir * step, w[leave], leave_at_upper);
  }
  return true;
}

void LpSolver::Core::append_row(const Constraint& constraint, std::size_t index) {
  internal::StandardRow row = internal::build_standard_row(skel_, constraint, index);
  // <= form whatever the rhs sign: the row starts on a basic slack, possibly
  // primal-infeasible, for the dual simplex to repair.
  if (row.relation == Relation::kGreaterEqual) row.negate();
  OEF_CHECK(row.relation == Relation::kLessEqual);
  double biggest = 0.0;
  for (const internal::RowEntry& entry : row.entries) {
    biggest = std::max(biggest, std::abs(entry.value * col_scale_[entry.col]));
  }
  const double rscale = (scaling_ && biggest > 0.0) ? 1.0 / biggest : 1.0;
  const double rhs = row.rhs * rscale;

  // New slack column, basic in the new row.
  cols_.set_rows(m_ + 1);
  for (const internal::RowEntry& entry : row.entries) {
    cols_.add_entry(entry.col, m_, entry.value * col_scale_[entry.col] * rscale);
  }
  const std::size_t slack_col = cols_.add_column();
  cols_.add_entry(slack_col, m_, 1.0);
  cost_.push_back(0.0);
  upper_.push_back(kInf);
  artificial_.push_back(0);
  in_basis_.push_back(1);
  at_upper_.push_back(0);
  primal_weights_.push_back(1.0);
  dual_weights_.push_back(1.0);
  ++num_cols_;
  basis_.append_row(slack_col);

  relations_.push_back(Relation::kLessEqual);
  row_refs_.push_back(row.ref);
  row_units_.push_back({slack_col});
  b_.push_back(rhs);
  b_exact_.push_back(rhs);
  row_scale_.push_back(rscale);
  xb_.push_back(0.0);  // refreshed by reoptimize()
  ++m_;
}

bool LpSolver::Core::delete_rows(const std::vector<std::size_t>& rows) {
  if (rows.empty()) return true;

  // Every deleted row must be covered by a basic unit column of its own
  // (slack, surplus or artificial): that is what keeps the reduced basis
  // nonsingular and the surviving basic values untouched. A loose row always
  // qualifies — its positive slack is basic — so the compaction path never
  // fails here; checked up front so failure leaves the core unmodified.
  std::vector<std::size_t> pos_of_col(num_cols_, SIZE_MAX);
  {
    const auto& basic = basis_.basic();
    for (std::size_t p = 0; p < m_; ++p) pos_of_col[basic[p]] = p;
  }
  std::vector<char> drop_row(m_, 0);
  std::vector<char> drop_col(num_cols_, 0);
  std::vector<char> drop_pos(m_, 0);
  for (const std::size_t r : rows) {
    OEF_CHECK(r < m_);
    std::size_t covering = SIZE_MAX;
    for (const std::size_t c : row_units_[r]) {
      if (pos_of_col[c] != SIZE_MAX) {
        covering = pos_of_col[c];
        break;
      }
    }
    if (covering == SIZE_MAX) return false;
    drop_pos[covering] = 1;
    drop_row[r] = 1;
    for (const std::size_t c : row_units_[r]) drop_col[c] = 1;
  }

  std::vector<std::size_t> col_remap(num_cols_, SIZE_MAX);
  std::vector<std::size_t> row_remap(m_, SIZE_MAX);
  std::size_t new_cols = 0;
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (!drop_col[j]) col_remap[j] = new_cols++;
  }
  std::size_t new_rows = 0;
  for (std::size_t i = 0; i < m_; ++i) {
    if (!drop_row[i]) row_remap[i] = new_rows++;
  }

  // The basic set loses the covering positions and renumbers the survivors.
  // Dual devex weights are indexed by basis position (the leaving-row
  // candidates), so they shrink by the same positions, not by the deleted
  // constraint rows.
  std::vector<std::size_t> kept_basic;
  std::vector<double> kept_weights;
  kept_basic.reserve(new_rows);
  kept_weights.reserve(new_rows);
  for (std::size_t p = 0; p < m_; ++p) {
    if (drop_pos[p]) continue;
    const std::size_t col = col_remap[basis_.basic()[p]];
    OEF_CHECK(col != SIZE_MAX);
    kept_basic.push_back(col);
    kept_weights.push_back(dual_weights_[p]);
  }
  basis_.set_basic(std::move(kept_basic));
  dual_weights_ = std::move(kept_weights);

  // Renumber the constraint matrix and every per-row / per-column array.
  SparseMatrix reduced;
  reduced.reset(new_rows);
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (drop_col[j]) continue;
    const std::size_t nj = reduced.add_column();
    for (const SparseEntry& e : cols_.column(j)) {
      if (!drop_row[e.row]) reduced.add_entry(nj, row_remap[e.row], e.value);
    }
  }
  cols_ = std::move(reduced);
  cols_.index_rows();

  const auto filter_rows = [&](auto& vec) {
    std::remove_reference_t<decltype(vec)> kept;
    kept.reserve(new_rows);
    for (std::size_t i = 0; i < m_; ++i) {
      if (!drop_row[i]) kept.push_back(std::move(vec[i]));
    }
    vec = std::move(kept);
  };
  const auto filter_cols = [&](auto& vec) {
    std::remove_reference_t<decltype(vec)> kept;
    kept.reserve(new_cols);
    for (std::size_t j = 0; j < num_cols_; ++j) {
      if (!drop_col[j]) kept.push_back(std::move(vec[j]));
    }
    vec = std::move(kept);
  };
  // Standard rows and model constraints share indices, so the deleted model
  // constraints are exactly `rows` and the surviving refs renumber through
  // the same row remap.
  for (internal::RowRef& ref : row_refs_) {
    if (ref.constraint != SIZE_MAX) ref.constraint = row_remap[ref.constraint];
  }
  filter_rows(relations_);
  filter_rows(row_refs_);
  filter_rows(row_units_);
  for (auto& units : row_units_) {
    for (std::size_t& c : units) c = col_remap[c];
  }
  filter_rows(b_);
  filter_rows(b_exact_);
  filter_rows(row_scale_);
  filter_cols(cost_);
  filter_cols(upper_);
  filter_cols(artificial_);
  filter_cols(at_upper_);
  filter_cols(primal_weights_);
  filter_cols(in_basis_);  // size must track num_cols_: append_row pushes onto it
  m_ = new_rows;
  num_cols_ = new_cols;
  rebuild_basis_flags();
  num_at_upper_ = 0;
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (at_upper_[j]) ++num_at_upper_;
  }
  any_artificial_ = false;
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (artificial_[j]) any_artificial_ = true;
  }

  // A fresh (cheap, sparse) factorisation of the reduced basis, so one that
  // fails to factor is refused here rather than at the next reoptimize();
  // the surviving basic values are recomputed from the reduced rhs — the
  // vertex itself is unchanged (the deleted rows carried basic slacks).
  if (!refactor()) return false;
  refresh_xb();
  return true;
}

void LpSolver::Core::extract(const LpModel& model, LpSolution& out) const {
  std::vector<double> column_values(num_cols_, 0.0);
  if (num_at_upper_ != 0) {
    for (std::size_t j = 0; j < num_cols_; ++j) {
      if (at_upper_[j]) column_values[j] = upper_[j];
    }
  }
  const auto& basic = basis_.basic();
  for (std::size_t i = 0; i < m_; ++i) {
    double value = std::max(0.0, xb_[i]);
    const double ub = upper_[basic[i]];
    if (std::isfinite(ub)) value = std::min(value, ub);
    column_values[basic[i]] = value;
  }

  out.values.assign(model.num_variables(), 0.0);
  for (std::size_t j = 0; j < n_struct_; ++j) {
    const double y = column_values[j] * col_scale_[j];
    out.values[skel_.columns[j].var] += skel_.columns[j].sign * y;
  }
  for (std::size_t v = 0; v < model.num_variables(); ++v) {
    out.values[v] += skel_.var_shift[v];
  }
  out.objective = model.objective_value(out.values);

  const std::vector<double> y = basis_.btran(basic_costs(/*phase1=*/false));
  out.duals.assign(model.num_constraints(), 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    const internal::RowRef& ref = row_refs_[i];
    if (ref.constraint == SIZE_MAX) continue;
    out.duals[ref.constraint] = skel_.sense_sign * ref.sign * y[i] * row_scale_[i];
  }

  out.iterations = iterations_;
  out.dual_iterations = dual_iterations_;
}

// ---------------------------------------------------------------------------
// LpSolver
// ---------------------------------------------------------------------------

LpSolver::LpSolver(SolverOptions options) : options_(options) {}
LpSolver::~LpSolver() = default;
LpSolver::LpSolver(LpSolver&&) noexcept = default;
LpSolver& LpSolver::operator=(LpSolver&&) noexcept = default;

bool LpSolver::has_basis() const { return core_ != nullptr; }

std::optional<LpWarmState> LpSolver::export_warm_state() const {
  if (!core_) return imported_;
  LpWarmState state = core_->identity();
  state.values = core_->vertex();
  return state;
}

bool LpSolver::import_warm_state(const LpWarmState& state) {
  core_.reset();
  imported_.reset();
  if (options_.algorithm == LpAlgorithm::kTableau || !well_formed(state)) return false;
  imported_ = state;
  return true;
}

bool LpSolver::keep_if_optimal(std::unique_ptr<Core> core, SolveStatus status,
                               LpSolution& solution) {
  std::size_t pivots = 0;
  std::size_t dual_pivots = 0;
  for (bool recovery = false;; recovery = true) {
    stats_.total_iterations += core->iterations();
    core->harvest(stats_);
    solution.status = status;
    if (status != SolveStatus::kOptimal) return false;
    core->extract(model_, solution);
    pivots += solution.iterations;
    dual_pivots += solution.dual_iterations;
    solution.iterations = pivots;
    solution.dual_iterations = dual_pivots;
    if (check_certificate(model_, solution.values, solution.duals).passes(kCertificateTol)) break;
    ++stats_.certificate_failures;
    if (recovery) return false;
    // A corrupted update leaves x and y inconsistent at a basis that is
    // usually optimal itself. Reoptimising the same basic set refactorises
    // it (the updates go), re-prices and pivots only if it must; a second
    // failure discards the point.
    status = core->reoptimize(options_, /*dual_feasible=*/false);
  }
  core_ = std::move(core);
  imported_.reset();
  return true;
}

LpSolution LpSolver::solve_loaded_cold() {
  // The last solver step: the caller already exhausted any warm option.
  // Tableau mode answers with the reference solver; otherwise the revised
  // verdict is final. An optimum whose certificate failed twice returns as
  // kIterationLimit, with no values, which callers already degrade on.
  ++stats_.cold_solves;
  if (options_.algorithm == LpAlgorithm::kTableau) {
    LpSolution solution = SimplexSolver(options_).solve(model_);
    stats_.total_iterations += solution.iterations;
    return solution;
  }
  auto core = std::make_unique<Core>();
  core->load(model_, options_);
  const SolveStatus status = core->run_cold(options_);
  LpSolution solution;
  if (keep_if_optimal(std::move(core), status, solution)) return solution;
  LpSolution failed;
  failed.status = status == SolveStatus::kOptimal ? SolveStatus::kIterationLimit : status;
  return failed;
}

LpSolution LpSolver::reoptimize_or_cold(std::unique_ptr<Core> core, bool dual_feasible) {
  if (core) {
    const SolveStatus status = core->reoptimize(options_, dual_feasible);
    LpSolution solution;
    if (keep_if_optimal(std::move(core), status, solution)) {
      solution.warm_started = true;
      stats_.warm_iterations += solution.iterations;
      return solution;
    }
  }
  return solve_loaded_cold();
}

LpSolution LpSolver::solve(LpModel model, const LpModelMap& map) {
  OEF_REQUIRE_MSG(map.empty() || (map.variables.size() == model.num_variables() &&
                                  map.constraints.size() == model.num_constraints()),
                  "a model map must name every variable and constraint of the new model");
  const double start = common::monotonic_seconds();
  // Basis reuse: the previous identity (the last optimum's, or one
  // import_warm_state() holds) starts this solve, translated through `map`.
  // Only a map other than the identity reads the vertex, so a call that
  // keeps the shape skips the factorisation vertex() costs.
  std::optional<LpWarmState> previous = imported_;
  if (core_) {
    previous = core_->identity();
    if (!is_identity(map, *previous)) previous->values = core_->vertex();
  }
  core_.reset();
  imported_.reset();
  model_ = std::move(model);
  std::unique_ptr<Core> core;
  if (previous) {
    core = std::make_unique<Core>();
    core->load(model_, options_);
    if (!core->translate(*previous, map)) core.reset();
  }
  LpSolution solution = reoptimize_or_cold(std::move(core), /*dual_feasible=*/false);
  if (solution.warm_started) ++stats_.warm_start_hits;
  stats_.solve_seconds += seconds_since(start);
  return solution;
}

bool LpSolver::delete_rows(const std::vector<std::size_t>& row_indices) {
  if (row_indices.empty()) return has_basis();
  std::vector<std::size_t> sorted = row_indices;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  // Out-of-range indices are caller misconfiguration at a module boundary
  // (the cooperative allocator and embedders drive this API), so report them
  // as a catchable CheckError rather than aborting; see check.h for the
  // policy.
  for (const std::size_t r : sorted) {
    OEF_REQUIRE_MSG(r < model_.num_constraints(),
                    "delete_rows index past the loaded model's constraints");
  }

  if (core_) {
    const bool warm = core_->delete_rows(sorted);
    core_->harvest(stats_);
    // Either some row had no basic unit column (so the excision would leave
    // a singular basis) or the reduced refactorisation failed; the core may
    // be part-mutated, so drop it and let the next solve/resolve rebuild
    // cold from the shrunken model.
    if (!warm) core_.reset();
  }
  model_.remove_constraints(sorted);
  return has_basis();
}

void LpSolver::add_rows(const std::vector<Constraint>& rows) {
  for (const Constraint& constraint : rows) {
    const std::size_t index = model_.add_constraint(constraint);
    if (!core_) continue;
    if (constraint.relation == Relation::kEqual) {
      // Equality rows are not dual-warm-startable from a slack basis; drop
      // the warm identity so the next resolve() solves the extended model
      // cold.
      core_.reset();
      continue;
    }
    core_->append_row(constraint, index);
  }
}

LpSolution LpSolver::resolve() {
  const double start = common::monotonic_seconds();
  // add_rows() and delete_rows() leave the costs alone, so the optimal basis
  // they extended or shrank is still dual-feasible: skip that test. Without
  // a warm identity this solves the loaded model cold.
  LpSolution solution = reoptimize_or_cold(std::move(core_), /*dual_feasible=*/true);
  if (solution.warm_started) ++stats_.warm_resolves;
  stats_.solve_seconds += seconds_since(start);
  return solution;
}

}  // namespace oef::solver

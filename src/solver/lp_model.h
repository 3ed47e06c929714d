// Linear-program model builder.
//
// The allocators in src/core and src/sched express their optimisation
// problems against this API (variables with bounds, linear constraints, a
// linear objective) and hand the model to LpSolver; tests and the benches'
// reference arms hand it to SimplexSolver. The builder mirrors the role
// cvxpy played in the paper's prototype.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace oef::solver {

/// Opaque variable handle (dense index into the model).
using VarId = std::size_t;

/// One term of a linear expression.
struct LinearTerm {
  VarId var = 0;
  double coeff = 0.0;
};

/// Sparse linear expression Σ coeff_i · var_i.
class LinearExpr {
 public:
  LinearExpr() = default;
  LinearExpr(std::initializer_list<LinearTerm> terms) : terms_(terms) {}

  LinearExpr& add(VarId var, double coeff);
  [[nodiscard]] const std::vector<LinearTerm>& terms() const { return terms_; }

  /// Evaluates the expression at a point (indexed by VarId).
  [[nodiscard]] double evaluate(const std::vector<double>& values) const;

 private:
  std::vector<LinearTerm> terms_;
};

enum class Relation { kLessEqual, kGreaterEqual, kEqual };

enum class Sense { kMaximize, kMinimize };

struct Constraint {
  LinearExpr expr;
  Relation relation = Relation::kLessEqual;
  double rhs = 0.0;
};

/// Infinity bound marker.
inline constexpr double kInf = std::numeric_limits<double>::infinity();

struct Variable {
  double lower = 0.0;
  double upper = kInf;
  double objective = 0.0;
};

/// A linear program: variables with bounds, linear constraints, one linear
/// objective. Variables default to [0, +inf).
class LpModel {
 public:
  explicit LpModel(Sense sense = Sense::kMaximize) : sense_(sense) {}

  [[nodiscard]] Sense sense() const { return sense_; }

  /// Adds a variable; `objective` is its coefficient in the objective.
  VarId add_variable(double lower = 0.0, double upper = kInf, double objective = 0.0);

  /// Adds a constraint and returns its index.
  std::size_t add_constraint(Constraint constraint);
  std::size_t add_constraint(LinearExpr expr, Relation relation, double rhs);

  /// Removes the constraints at `sorted_indices` (ascending, unique);
  /// surviving constraints keep their relative order and renumber down.
  /// Mirrors LpSolver::delete_rows on the solver side.
  void remove_constraints(const std::vector<std::size_t>& sorted_indices);

  [[nodiscard]] std::size_t num_variables() const { return variables_.size(); }
  [[nodiscard]] std::size_t num_constraints() const { return constraints_.size(); }
  [[nodiscard]] const std::vector<Variable>& variables() const { return variables_; }
  [[nodiscard]] const std::vector<Constraint>& constraints() const { return constraints_; }

  /// Objective value of a candidate point (indexed by VarId).
  [[nodiscard]] double objective_value(const std::vector<double>& values) const;

  /// True when `values` satisfies all bounds and constraints within `tol`.
  [[nodiscard]] bool is_feasible(const std::vector<double>& values, double tol = 1e-7) const;

 private:
  Sense sense_;
  std::vector<Variable> variables_;
  std::vector<Constraint> constraints_;
};

}  // namespace oef::solver

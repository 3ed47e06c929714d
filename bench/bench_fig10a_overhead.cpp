// Figure 10(a) reproduction: computation overhead of the fair-share
// evaluator vs number of users, with 10 GPU types.
// Paper shape: cooperative OEF costs more than non-cooperative (O(n^2) vs
// O(n) fairness rows) and both stay well below the five-minute round length.
//
// Three sweeps, one timed allocate() per point:
//   * non-cooperative OEF, the LP of Eq. 9, n = 50..300;
//   * cooperative OEF, Cold: every lazy envy-separation round re-solved from
//     scratch by the reference tableau (the pre-warm-start behaviour), scoped
//     to n <= 40 — its dense tableau grows to O(n * rounds) rows;
//   * cooperative OEF, Warm: one stateful LpSolver, so rounds >= 2 are
//     dual-simplex resolves from the previous optimal basis, n <= 60.
// Every cooperative n is cross-checked against the cold tableau's objective
// (computed untimed at n = 60, where the Cold sweep does not run). The table
// carries the lazy-loop and warm-start counters of each call.
//
// Usage: bench_fig10a_overhead
// Exit code: number of failed checks (0 = healthy).
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/oef.h"
#include "core/speedup_matrix.h"

namespace {

using namespace oef;

constexpr std::size_t kGpuTypes = 10;

core::SpeedupMatrix make_matrix(std::size_t n) {
  common::Rng rng(4242);
  std::vector<std::vector<double>> rows(n);
  for (auto& row : rows) {
    row.resize(kGpuTypes);
    row[0] = 1.0;
    for (std::size_t j = 1; j < kGpuTypes; ++j) {
      row[j] = row[j - 1] * rng.uniform(1.02, 1.35);
    }
  }
  return core::SpeedupMatrix(std::move(rows));
}

std::vector<double> make_capacities() {
  return std::vector<double>(kGpuTypes, 24.0);
}

core::OefOptions cold_options() {
  core::OefOptions options;
  options.solver.algorithm = solver::LpAlgorithm::kTableau;
  return options;
}

struct Timed {
  core::AllocationResult result;
  double ms = 0.0;
};

Timed timed_allocate(const core::OefAllocator& allocator, const core::SpeedupMatrix& w) {
  const std::vector<double> m = make_capacities();
  const double start = common::monotonic_seconds();
  Timed timed{allocator.allocate(w, m), 0.0};
  timed.ms = 1e3 * (common::monotonic_seconds() - start);
  return timed;
}

}  // namespace

int main() {
  bench::print_header(
      "Fig. 10(a): allocator overhead vs users, 10 GPU types",
      "cooperative costs more than non-cooperative; both stay far below the "
      "5-minute round");

  // Checks are printed after the table, in the order they were made.
  std::vector<std::pair<std::string, bool>> checks;
  const auto check = [&checks](const std::string& label, bool ok) {
    checks.emplace_back(label, ok);
  };
  common::Table table({"sweep", "n", "ms", "lazy rounds", "warm rounds", "pivots",
                       "objective"});
  const auto add_row = [&table](const char* sweep, std::size_t n, const Timed& t) {
    table.add_row({sweep, std::to_string(n), common::format_double(t.ms, 2),
                   std::to_string(t.result.lazy_rounds),
                   std::to_string(t.result.warm_rounds),
                   std::to_string(t.result.lp_iterations),
                   common::format_double(t.result.total_efficiency, 6)});
  };

  // The paper sweeps 100-300 users with ECOS (sparse interior point); the
  // non-cooperative LP has O(n) fairness rows and reproduces at full scale.
  for (const std::size_t n : {50, 100, 200, 300}) {
    const Timed lp = timed_allocate(core::make_non_cooperative_oef(), make_matrix(n));
    add_row("noncoop_lp", n, lp);
    check("noncoop LP n=" + std::to_string(n) + " optimal", lp.result.ok());
  }

  // Cooperative: the cold tableau run is both the Cold sweep point and the
  // reference objective the Warm sweep is checked against.
  const std::vector<std::size_t> coop_sweep = {10, 20, 30, 40, 60};
  std::vector<double> reference(coop_sweep.size(), std::nan(""));
  for (std::size_t i = 0; i < coop_sweep.size(); ++i) {
    const std::size_t n = coop_sweep[i];
    const Timed cold = timed_allocate(core::make_cooperative_oef(cold_options()), make_matrix(n));
    if (n <= 40) add_row("coop_cold", n, cold);
    check("coop cold tableau reference n=" + std::to_string(n) + " optimal",
          cold.result.ok());
    if (cold.result.ok()) reference[i] = cold.result.total_efficiency;
  }
  for (std::size_t i = 0; i < coop_sweep.size(); ++i) {
    const std::size_t n = coop_sweep[i];
    const Timed warm = timed_allocate(core::make_cooperative_oef(), make_matrix(n));
    add_row("coop_warm", n, warm);
    check("coop warm n=" + std::to_string(n) + " optimal", warm.result.ok());
    check("coop warm n=" + std::to_string(n) +
              " objective matches the cold tableau within 1e-5",
          std::abs(warm.result.total_efficiency - reference[i]) <=
              1e-5 * (1.0 + reference[i]));
  }
  table.print();
  int failures = 0;
  for (const auto& [label, ok] : checks) {
    bench::print_check(label, ok);
    if (!ok) ++failures;
  }
  return failures;
}

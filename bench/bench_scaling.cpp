// Solver scaling sweep: cooperative OEF at n = 40..1000 tenants.
//
// This is the perf trajectory the paper's Fig. 8 / Fig. 10a evaluation
// needs: the cooperative sweep runs to n = 1000 users on the revised simplex
// (sparse LU basis with Forrest–Tomlin updates, devex pricing). Two arms
// run: the product and the independent full-tableau reference at small n.
// All arms must agree on the objective to 1e-6, and every allocation must
// fit capacity and be envy-free and sharing-incentive to 1e-6
// (core/properties.h), with no revised optimum failing its optimality
// certificate (solver/certificate.h).
//
// Output: a human-readable table plus machine-readable BENCH_scaling.json
// (one record per n x arm; schema in docs/BENCHMARKS.md) so the perf
// trajectory is tracked across PRs.
//
// Usage: bench_scaling [--max-n=N] [--output=PATH]
//   --max-n=80 is the CI smoke configuration (wall-clock budgeted).
// Exit code: number of failed checks (0 = healthy).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/oef.h"
#include "core/properties.h"

namespace {

using namespace oef;

struct ArmSpec {
  const char* name;
  solver::LpAlgorithm algorithm;
  /// Largest n this arm runs at. The tableau reference keeps every row it
  /// holds dense, so it stays at n = 40, inside the CI smoke's budget.
  std::size_t max_n;
};

constexpr ArmSpec kArms[] = {
    // The shipped configuration: the revised simplex.
    {"lu_sparse_devex", solver::LpAlgorithm::kRevised, 1000},
    // Independent cross-check: every LP of the lazy loop handed to the
    // full-tableau reference solver.
    {"tableau", solver::LpAlgorithm::kTableau, 40},
};

struct RunRecord {
  std::size_t n = 0;
  std::string arm;
  std::string basis;
  bool ok = false;
  double objective = 0.0;
  double wall_seconds = 0.0;
  double solver_seconds = 0.0;
  double oracle_seconds = 0.0;
  std::size_t lazy_rounds = 0;
  std::size_t envy_rows_added = 0;
  std::size_t envy_rows_dropped = 0;
  std::size_t warm_compactions = 0;
  std::size_t lp_iterations = 0;
  std::size_t refactorisations = 0;
  std::size_t certificate_failures = 0;
  bool fits_capacity = false;
  bool envy_free = false;
  bool sharing_incentive = false;
};

/// Tolerance of the capacity and Table 1 property checks.
constexpr double kPropertyTol = 1e-6;

core::SpeedupMatrix make_instance(std::size_t n, std::size_t k) {
  // Deterministic synthetic tenants: monotone per-row speedups with random
  // ratios, the shape the paper's profiler produces for its GPU ladder.
  common::Rng rng(42);
  std::vector<std::vector<double>> rows(n);
  for (auto& row : rows) {
    row.resize(k);
    row[0] = 1.0;
    for (std::size_t j = 1; j < k; ++j) row[j] = row[j - 1] * rng.uniform(1.05, 2.0);
  }
  return core::SpeedupMatrix(std::move(rows));
}

RunRecord run_arm(std::size_t n, const ArmSpec& arm) {
  const std::size_t k = 3;
  const core::SpeedupMatrix w = make_instance(n, k);
  const std::vector<double> caps = {30.0, 40.0, 22.0};

  core::OefOptions options;
  options.solver.algorithm = arm.algorithm;
  const core::OefAllocator allocator = core::make_cooperative_oef(options);

  const auto start = std::chrono::steady_clock::now();
  const core::AllocationResult result = allocator.allocate(w, caps);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  RunRecord record;
  record.n = n;
  record.arm = arm.name;
  record.basis =
      arm.algorithm == solver::LpAlgorithm::kRevised ? "factored_lu" : "tableau";
  record.ok = result.ok();
  record.objective = result.total_efficiency;
  record.wall_seconds = wall;
  record.solver_seconds = result.solve_seconds;
  record.oracle_seconds = result.oracle_seconds;
  record.lazy_rounds = result.lazy_rounds;
  record.envy_rows_added = result.envy_rows_added;
  record.envy_rows_dropped = result.envy_rows_dropped;
  record.warm_compactions = result.warm_compactions;
  record.lp_iterations = result.lp_iterations;
  record.refactorisations = result.refactorisations;
  record.certificate_failures = result.certificate_failures;
  record.fits_capacity = result.allocation.respects_capacity(caps, kPropertyTol);
  record.envy_free = core::check_envy_freeness(w, result.allocation, kPropertyTol).envy_free;
  record.sharing_incentive =
      core::check_sharing_incentive(w, result.allocation, caps, kPropertyTol).sharing_incentive;
  return record;
}

void write_json(const std::vector<RunRecord>& records, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::printf("  (could not open %s for writing)\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"scaling\",\n  \"runs\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RunRecord& r = records[i];
    std::fprintf(out,
                 "    {\"n\": %zu, \"arm\": \"%s\", \"basis\": \"%s\", \"ok\": %s, "
                 "\"objective\": %.9f, \"wall_seconds\": %.6f, "
                 "\"solver_seconds\": %.6f, \"oracle_seconds\": %.6f, "
                 "\"lazy_rounds\": %zu, \"envy_rows_added\": %zu, "
                 "\"envy_rows_dropped\": %zu, \"warm_compactions\": %zu, "
                 "\"lp_iterations\": %zu, \"refactorisations\": %zu, "
                 "\"certificate_failures\": %zu, "
                 "\"fits_capacity\": %s, \"envy_free\": %s, \"sharing_incentive\": %s}%s\n",
                 r.n, r.arm.c_str(), r.basis.c_str(), r.ok ? "true" : "false",
                 r.objective, r.wall_seconds, r.solver_seconds, r.oracle_seconds,
                 r.lazy_rounds, r.envy_rows_added, r.envy_rows_dropped,
                 r.warm_compactions, r.lp_iterations, r.refactorisations, r.certificate_failures,
                 r.fits_capacity ? "true" : "false",
                 r.envy_free ? "true" : "false", r.sharing_incentive ? "true" : "false",
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("  wrote %s (%zu runs)\n", path.c_str(), records.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t max_n = 1000;
  std::string output = "BENCH_scaling.json";
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--max-n=", 8) == 0) {
      max_n = static_cast<std::size_t>(std::stoul(argv[a] + 8));
    } else if (std::strncmp(argv[a], "--output=", 9) == 0) {
      output = argv[a] + 9;
    } else {
      std::printf("usage: %s [--max-n=N] [--output=PATH]\n", argv[0]);
      return 1;
    }
  }

  bench::print_header(
      "Scaling: cooperative OEF sweep, solver arms",
      "factored LU basis + sparse simplex + devex unlocks the n=1000 sweep");

  const std::size_t sweep[] = {40, 80, 150, 300, 600, 1000};
  std::vector<RunRecord> records;
  common::Table table({"n", "arm", "wall (s)", "solver (s)", "oracle (s)", "rounds",
                       "rows", "pivots", "refactors", "objective"});
  for (const std::size_t n : sweep) {
    if (n > max_n) continue;
    for (const ArmSpec& arm : kArms) {
      if (n > arm.max_n) continue;
      const RunRecord r = run_arm(n, arm);
      table.add_row({std::to_string(r.n), r.arm, common::format_double(r.wall_seconds, 3),
                     common::format_double(r.solver_seconds, 3),
                     common::format_double(r.oracle_seconds, 3),
                     std::to_string(r.lazy_rounds), std::to_string(r.envy_rows_added),
                     std::to_string(r.lp_iterations), std::to_string(r.refactorisations),
                     common::format_double(r.objective, 6)});
      records.push_back(r);
    }
  }
  table.print();

  // Cross-checks; the exit code reports failures so CI fails loudly.
  int failures = 0;
  const auto check = [&failures](const std::string& label, bool ok) {
    bench::print_check(label, ok);
    if (!ok) ++failures;
  };

  for (const std::size_t n : sweep) {
    if (n > max_n) continue;
    const RunRecord* reference = nullptr;
    for (const RunRecord& r : records) {
      if (r.n != n) continue;
      const std::string label = "n=" + std::to_string(n) + " " + r.arm;
      check(label + " optimal", r.ok);
      check(label + " fits capacity", r.fits_capacity);
      check(label + " envy-free", r.envy_free);
      check(label + " sharing-incentive", r.sharing_incentive);
      check(label + " no certificate failures", r.certificate_failures == 0);
      if (reference == nullptr) {
        reference = &r;
        continue;
      }
      check(label + " objective matches " + reference->arm + " within 1e-6",
            std::abs(r.objective - reference->objective) <=
                1e-6 * (1.0 + std::abs(reference->objective)));
    }
  }

  const auto find = [&records](std::size_t n, const char* arm) -> const RunRecord* {
    for (const RunRecord& r : records) {
      if (r.n == n && r.arm == arm) return &r;
    }
    return nullptr;
  };
  if (max_n >= 300) {
    const RunRecord* lu300 = find(300, "lu_sparse_devex");
    check("n=300 cooperative sweep completed", lu300 != nullptr && lu300->ok);
  }
  if (max_n >= 1000) {
    const RunRecord* top = find(1000, "lu_sparse_devex");
    check("n=1000 cooperative sweep completed", top != nullptr && top->ok);
  }

  write_json(records, output);
  return failures;
}

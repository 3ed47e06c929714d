// Shared helpers for the bench binaries: the paper fixture (cluster /
// catalog / model zoo used by the per-figure reproductions) and the
// header / check-line emission every bench prints.
//
// The bench surface itself is documented in docs/BENCHMARKS.md. The solver
// benches (bench_scaling, bench_fig10a_overhead) run the revised simplex
// against the independent full-tableau reference, which cross-checks every
// objective but is not the product. print_check lines are the
// machine-visible pass/fail surface: bench_scaling, bench_churn and
// bench_fig10a_overhead exit with the number of failed checks so CI fails
// loudly.
#pragma once

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/table.h"
#include "workload/dl_models.h"
#include "workload/gpu_catalog.h"

namespace oef::bench {

struct PaperFixture {
  cluster::Cluster cluster = cluster::make_paper_cluster();
  workload::GpuCatalog catalog = workload::make_paper_catalog();
  std::vector<std::string> gpu_names = {"RTX3070", "RTX3080", "RTX3090"};
  workload::ModelZoo zoo;
};

inline void print_header(const std::string& experiment, const std::string& paper_claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Paper: %s\n", paper_claim.c_str());
  std::printf("================================================================\n");
}

inline void print_check(const std::string& label, bool ok) {
  std::printf("  [%s] %s\n", ok ? "OK" : "DEVIATES", label.c_str());
}

/// Mean per-round totals over the tail of a simulation (skipping warm-up).
struct ThroughputSummary {
  double estimated = 0.0;
  double actual = 0.0;
  std::size_t cross_type_jobs = 0;
  std::size_t straggler_workers = 0;
};

}  // namespace oef::bench

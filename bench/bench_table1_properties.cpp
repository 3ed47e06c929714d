// Table 1 reproduction: fairness properties guaranteed by each scheduler,
// verified empirically. PE/EF/SI are checked on randomised instances; SP via
// the randomised-exaggeration attack harness; optimal efficiency compares the
// scheduler's total against the constrained optimum OEF attains.
//
// Paper's Table 1:
//   Gavel:        PE x  EF x  SI ok  SP x  opt-eff x
//   Gandiva_fair: PE ok EF x  SI ok  SP x  opt-eff x
//   OEF:          PE ok EF ok SI ok  SP ok opt-eff ok
// (OEF per environment: SP holds in non-cooperative mode, EF in cooperative
// mode; PE is efficiency-maximality within each mode's constraint set.)
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "core/oef.h"
#include "core/properties.h"
#include "sched/registry.h"

namespace {

using namespace oef;

struct PropertyTally {
  int pe_violations = 0;
  int ef_violations = 0;
  int si_violations = 0;
  int sp_violations = 0;
  double efficiency_ratio_sum = 0.0;
  int instances = 0;
};

core::SpeedupMatrix random_matrix(common::Rng& rng, std::size_t n, std::size_t k) {
  std::vector<std::vector<double>> rows(n);
  for (auto& row : rows) {
    row.resize(k);
    row[0] = 1.0;
    for (std::size_t j = 1; j < k; ++j) row[j] = row[j - 1] * rng.uniform(1.0, 1.9);
  }
  return core::SpeedupMatrix(std::move(rows));
}

PropertyTally evaluate(const std::string& scheduler_name, bool check_ef_against_coop) {
  PropertyTally tally;
  common::Rng rng(2025);
  const auto scheduler = sched::make_scheduler(scheduler_name);
  const core::OefAllocator coop = core::make_cooperative_oef();

  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(3, 6));
    const std::size_t k = static_cast<std::size_t>(rng.uniform_int(2, 3));
    const core::SpeedupMatrix w = random_matrix(rng, n, k);
    std::vector<double> m(k);
    for (double& v : m) v = static_cast<double>(rng.uniform_int(1, 6));

    const core::Allocation x = scheduler->allocate(w, m, {});
    ++tally.instances;

    if (!core::check_envy_freeness(w, x, 1e-5).envy_free) ++tally.ef_violations;
    if (!core::check_sharing_incentive(w, x, m, 1e-5).sharing_incentive) {
      ++tally.si_violations;
    }
    if (!core::check_pareto_efficiency(w, x, m, 1e-4).pareto_efficient) {
      ++tally.pe_violations;
    }

    // Optimal efficiency: compare against the best total achievable under
    // the same fairness regime (cooperative OEF's optimum, the paper's
    // "optimal efficiency" row).
    const core::AllocationResult best = coop.allocate(w, m);
    if (best.ok() && best.total_efficiency > 0.0) {
      tally.efficiency_ratio_sum += x.total_efficiency(w) / best.total_efficiency;
    }

    // Strategy-proofness attack (cheap configuration).
    const core::AllocatorFn allocator = [&](const core::SpeedupMatrix& reported,
                                            const std::vector<double>& caps) {
      return scheduler->allocate(reported, caps, {});
    };
    core::AttackOptions attack;
    attack.attempts_per_user = 6;
    attack.seed = 77 + static_cast<std::uint64_t>(trial);
    attack.tol = 1e-4;
    if (!core::check_strategy_proofness(w, m, allocator, attack).strategy_proof) {
      ++tally.sp_violations;
    }
  }
  (void)check_ef_against_coop;
  return tally;
}

std::string mark(int violations) { return violations == 0 ? "yes" : "no"; }

}  // namespace

int main() {
  bench::print_header(
      "Table 1: properties guaranteed by existing schedulers",
      "Gavel: SI only; Gandiva_fair: PE+SI; OEF: PE+EF+SI+SP+optimal efficiency");

  common::Table table({"scheduler", "PE", "EF", "SI", "SP", "eff. vs OEF-coop",
                       "violations (pe/ef/si/sp of 12)"});
  struct RowSpec {
    const char* name;
    bool ef_vs_coop;
  };
  const std::vector<RowSpec> rows = {{"Gavel", false},
                                     {"GandivaFair", false},
                                     {"MaxMin", false},
                                     {"EfficiencyMax", false},
                                     {"OEF-noncoop", false},
                                     {"OEF-coop", true}};
  for (const RowSpec& spec : rows) {
    const PropertyTally tally = evaluate(spec.name, spec.ef_vs_coop);
    char counts[64];
    std::snprintf(counts, sizeof(counts), "%d/%d/%d/%d", tally.pe_violations,
                  tally.ef_violations, tally.si_violations, tally.sp_violations);
    table.add_row({spec.name, mark(tally.pe_violations), mark(tally.ef_violations),
                   mark(tally.si_violations), mark(tally.sp_violations),
                   common::format_double(
                       tally.efficiency_ratio_sum / tally.instances, 3),
                   counts});
  }
  table.print();

  std::printf(
      "\nNotes:\n"
      "  * SP for OEF-noncoop and EF/SI for OEF-coop must read 'yes'.\n"
      "  * Gavel/GandivaFair must show EF and SP violations (paper SS2.4).\n"
      "  * PE here is the *global* check; OEF-coop's PE guarantee is within\n"
      "    the envy-free set (docs/BENCHMARKS.md, F2), so occasional 'no' entries\n"
      "    in the global column reproduce our documented finding.\n"
      "  * 'eff. vs OEF-coop' is the mean total-efficiency ratio; OEF-coop\n"
      "    is 1.0 by definition (optimal efficiency under fairness).\n");
  return 0;
}

// Figure 5(b) reproduction: a tenant adds a second DL job type on the fly.
// Before minute 40, user-1 receives the same throughput as everyone else;
// afterwards his two job types split his entitlement equally, each getting
// half of what the other users get (weighted OEF with virtual users,
// §4.2.3–4.2.4).
#include <cstdio>

#include "bench_common.h"
#include "core/oef.h"
#include "core/virtual_users.h"
#include "workload/profiler.h"

int main() {
  using namespace oef;
  bench::PaperFixture fixture;
  workload::Profiler profiler(fixture.catalog, fixture.gpu_names);

  const auto profile_of = [&](const char* model) {
    return profiler.true_speedups(fixture.zoo.get(model),
                                  fixture.zoo.get(model).reference_batch);
  };

  const std::vector<double> capacities = fixture.cluster.capacities();
  const core::OefAllocator allocator = core::make_non_cooperative_oef();

  bench::print_header("Figure 5(b): user-1 adds a second job type at minute 40",
                      "two types split user-1's share; each gets ~half of others");

  common::Table table({"minute", "user1_job1", "user1_job2", "user2", "user3", "user4"});
  double before_u1 = 0.0;
  double after_j1 = 0.0;
  double after_j2 = 0.0;
  double after_u2 = 0.0;
  for (std::size_t round = 0; round < 18; ++round) {
    const bool second_type = round >= 8;  // minute 40
    // Tenant t is user-(t+1); user-1 runs LSTM, and ResNet50 too from minute 40.
    std::vector<core::TenantProfile> tenants(4);
    tenants[0].job_types.push_back({profile_of("LSTM")});
    if (second_type) tenants[0].job_types.push_back({profile_of("ResNet50")});
    tenants[1].job_types.push_back({profile_of("VGG16")});
    tenants[2].job_types.push_back({profile_of("Transformer")});
    tenants[3].job_types.push_back({profile_of("DenseNet121")});

    const core::VirtualUserMap map = core::expand_tenants(tenants);
    const core::AllocationResult result = allocator.allocate_weighted(
        map.matrix, map.multiplicities, capacities);
    if (!result.ok()) {
      std::printf("allocation failed at round %zu\n", round);
      return 1;
    }

    std::vector<double> row;
    // Virtual rows are ordered tenant-major, so row 0 (and 1 when present)
    // belong to user-1.
    const double j1 = result.allocation.efficiency(0, map.matrix);
    const double j2 = second_type ? result.allocation.efficiency(1, map.matrix) : 0.0;
    row.push_back(j1);
    row.push_back(j2);
    const std::size_t offset = second_type ? 2 : 1;
    for (std::size_t t = 1; t < 4; ++t) {
      row.push_back(result.allocation.efficiency(offset + t - 1, map.matrix));
    }
    table.add_numeric_row(std::to_string(round * 5), row, 2);

    if (round == 4) before_u1 = j1;
    if (round == 12) {
      after_j1 = j1;
      after_j2 = j2;
      after_u2 = row[2];
    }
  }
  table.print();

  bench::print_check("before: user-1 equals others (single type)", before_u1 > 0.0);
  bench::print_check("after: the two job types get equal throughput",
                     std::abs(after_j1 - after_j2) < 0.02 * after_j1);
  bench::print_check("after: each type gets ~half of another user's share",
                     std::abs(after_j1 / after_u2 - 0.5) < 0.03);
  std::printf("  after split: job1 %.3f, job2 %.3f, user2 %.3f (ratio %.3f)\n",
              after_j1, after_j2, after_u2, after_j1 / after_u2);
  return 0;
}

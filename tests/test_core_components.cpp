// Unit tests for the core data types and property checkers.
#include <gtest/gtest.h>

#include "core/allocation.h"
#include "core/properties.h"
#include "core/speedup_matrix.h"
#include "core/virtual_users.h"

namespace oef::core {
namespace {

TEST(SpeedupMatrix, NormalisesRowsOnConstruction) {
  const SpeedupMatrix w({{2.0, 4.0, 6.0}, {5.0, 5.0, 10.0}});
  EXPECT_DOUBLE_EQ(w.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(w.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(w.at(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(w.at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(w.at(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(w.at(1, 2), 2.0);
}

TEST(SpeedupMatrix, SetRowRenormalises) {
  SpeedupMatrix w({{1, 2}});
  w.set_row(0, {4.0, 12.0});
  EXPECT_DOUBLE_EQ(w.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(w.at(0, 1), 3.0);
}

TEST(SpeedupMatrix, DotProduct) {
  const SpeedupMatrix w({{1, 2, 4}});
  EXPECT_DOUBLE_EQ(w.dot(0, {1.0, 0.5, 0.25}), 3.0);
}

TEST(Allocation, EfficiencyArithmetic) {
  const SpeedupMatrix w({{1, 2}, {1, 3}});
  const Allocation x({{1.0, 0.5}, {0.0, 0.5}});
  EXPECT_DOUBLE_EQ(x.efficiency(0, w), 2.0);
  EXPECT_DOUBLE_EQ(x.efficiency(1, w), 1.5);
  EXPECT_DOUBLE_EQ(x.total_efficiency(w), 3.5);
  const std::vector<double> used = x.used_per_type();
  EXPECT_DOUBLE_EQ(used[0], 1.0);
  EXPECT_DOUBLE_EQ(used[1], 1.0);
}

TEST(Allocation, CapacityCheck) {
  const Allocation x({{1.0, 0.5}, {0.0, 0.6}});
  EXPECT_TRUE(x.respects_capacity({1.0, 1.2}));
  EXPECT_FALSE(x.respects_capacity({1.0, 1.0}));
}

TEST(Allocation, AdjacencyCheck) {
  EXPECT_TRUE(Allocation({{1.0, 2.0, 0.0}}).uses_adjacent_types_only());
  EXPECT_TRUE(Allocation({{0.0, 2.0, 1.0}}).uses_adjacent_types_only());
  EXPECT_FALSE(Allocation({{1.0, 0.0, 1.0}}).uses_adjacent_types_only());
  EXPECT_TRUE(Allocation({{0.0, 0.0, 0.0}}).uses_adjacent_types_only());
}

TEST(VirtualUsers, ExpandSplitsWeightAcrossJobTypes) {
  std::vector<TenantProfile> tenants(2);
  tenants[0].weight = 1.0;
  tenants[0].job_types = {{{1, 2}}, {{2, 6}}};
  tenants[1].weight = 2.0;
  tenants[1].job_types = {{{1, 5}}};
  const VirtualUserMap map = expand_tenants(tenants);
  ASSERT_EQ(map.matrix.num_users(), 3u);
  EXPECT_DOUBLE_EQ(map.multiplicities[0], 0.5);
  EXPECT_DOUBLE_EQ(map.multiplicities[1], 0.5);
  EXPECT_DOUBLE_EQ(map.multiplicities[2], 2.0);
  // Rows are tenant-major, one per job type, each normalised on its own; an
  // allocation is read per row.
  EXPECT_DOUBLE_EQ(map.matrix.at(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(map.matrix.at(2, 1), 5.0);
  const Allocation virt({{1.0, 0.2}, {0.5, 0.3}, {0.0, 0.1}});
  EXPECT_DOUBLE_EQ(virt.efficiency(0, map.matrix), 1.0 + 2 * 0.2);
  EXPECT_DOUBLE_EQ(virt.efficiency(1, map.matrix), 0.5 + 3 * 0.3);
}

TEST(Properties, EnvyReportIdentifiesPair) {
  const SpeedupMatrix w({{1, 2}, {1, 5}});
  // User 1 envies user 0's big fast share.
  const Allocation x({{0.0, 0.9}, {1.0, 0.1}});
  const EnvyReport report = check_envy_freeness(w, x);
  EXPECT_FALSE(report.envy_free);
  EXPECT_EQ(report.envious_user, 1u);
  EXPECT_EQ(report.envied_user, 0u);
  EXPECT_NEAR(report.worst_violation, (0.0 + 5 * 0.9) - (1.0 + 5 * 0.1), 1e-12);
}

TEST(Properties, SharingIncentiveReport) {
  const SpeedupMatrix w({{1, 2}, {1, 2}});
  const std::vector<double> m = {2.0, 2.0};
  // Fair share value per user = 1 + 2 = 3; user 1 only gets 2.
  const Allocation x({{2.0, 1.5}, {0.0, 0.5}});
  const SharingIncentiveReport report = check_sharing_incentive(w, x, m);
  EXPECT_FALSE(report.sharing_incentive);
  EXPECT_EQ(report.worst_user, 1u);
  EXPECT_NEAR(report.worst_violation, 3.0 - 1.0, 1e-12);
}

TEST(Properties, ParetoDetectsWaste) {
  const SpeedupMatrix w({{1, 2}});
  // Half the cluster unused: clearly improvable.
  const Allocation x({{0.5, 0.5}});
  const ParetoReport report = check_pareto_efficiency(w, x, {1.0, 1.0});
  EXPECT_FALSE(report.pareto_efficient);
  EXPECT_NEAR(report.achievable_gain, 0.5 + 2 * 0.5, 1e-6);
}

TEST(Properties, MaxTotalEfficiency) {
  const SpeedupMatrix w({{1, 2}, {1, 4}});
  EXPECT_DOUBLE_EQ(max_total_efficiency(w, {3.0, 2.0}), 3.0 + 8.0);
  const Allocation best({{3.0, 0.0}, {0.0, 2.0}});
  EXPECT_DOUBLE_EQ(best.total_efficiency(w), max_total_efficiency(w, {3.0, 2.0}));
}

TEST(Properties, StrategyProofnessHarnessFlagsGameableMechanism) {
  // A deliberately gameable allocator: gives the whole cluster to the user
  // with the largest reported fast-GPU speedup.
  const SpeedupMatrix w({{1, 2}, {1, 3}});
  const std::vector<double> m = {1.0, 1.0};
  const AllocatorFn winner_takes_all = [](const SpeedupMatrix& reported,
                                          const std::vector<double>& caps) {
    Allocation x(reported.num_users(), reported.num_types());
    std::size_t best = 0;
    for (std::size_t l = 1; l < reported.num_users(); ++l) {
      if (reported.at(l, 1) > reported.at(best, 1)) best = l;
    }
    for (std::size_t j = 0; j < reported.num_types(); ++j) x.at(best, j) = caps[j];
    return x;
  };
  AttackOptions attack;
  attack.attempts_per_user = 30;
  attack.max_exaggeration = 2.0;
  const StrategyProofnessReport report =
      check_strategy_proofness(w, m, winner_takes_all, attack);
  EXPECT_FALSE(report.strategy_proof);
  EXPECT_EQ(report.worst_user, 0u);  // user 0 can out-bid user 1 by lying
  EXPECT_GT(report.worst_gain, 1.0);
}

}  // namespace
}  // namespace oef::core

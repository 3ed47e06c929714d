// Baseline schedulers against the paper's §2.4 worked examples and their
// documented property profile (Table 1).
#include <gtest/gtest.h>

#include "core/properties.h"
#include "sched/efficiency_max.h"
#include "sched/gandiva_fair.h"
#include "sched/gavel.h"
#include "sched/maxmin.h"
#include "sched/oef_scheduler.h"
#include "sched/registry.h"

namespace oef::sched {
namespace {

const core::SpeedupMatrix kPaperW({{1, 2}, {1, 3}, {1, 4}});
const std::vector<double> kPaperM = {1.0, 1.0};

TEST(MaxMin, EqualSplit) {
  const core::Allocation x = MaxMinScheduler().allocate(kPaperW, kPaperM, {});
  for (std::size_t l = 0; l < 3; ++l) {
    EXPECT_NEAR(x.at(l, 0), 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(x.at(l, 1), 1.0 / 3.0, 1e-12);
  }
}

TEST(MaxMin, WeightProportionalSplit) {
  const core::Allocation x = MaxMinScheduler().allocate(kPaperW, kPaperM, {1.0, 1.0, 2.0});
  EXPECT_NEAR(x.at(0, 0), 0.25, 1e-12);
  EXPECT_NEAR(x.at(2, 1), 0.5, 1e-12);
}

TEST(GandivaFair, ReproducesPaperEq1Exactly) {
  // §2.4 Eq. (1): X = <1, 0.09; 0, 0.47; 0, 0.44>, E = <1.18, 1.41, 1.76>.
  const core::Allocation x = GandivaFairScheduler().allocate(kPaperW, kPaperM, {});
  EXPECT_NEAR(x.at(0, 0), 1.0, 1e-9);
  EXPECT_NEAR(x.at(0, 1), 4.0 / 45.0, 1e-9);   // 0.0889 -> paper's 0.09
  EXPECT_NEAR(x.at(1, 0), 0.0, 1e-9);
  EXPECT_NEAR(x.at(1, 1), 7.0 / 15.0, 1e-9);   // 0.4667 -> paper's 0.47
  EXPECT_NEAR(x.at(2, 1), 4.0 / 9.0, 1e-9);    // 0.4444 -> paper's 0.44

  const std::vector<double> eff = x.efficiencies(kPaperW);
  EXPECT_NEAR(eff[0], 1.178, 0.005);  // paper: 1.18
  EXPECT_NEAR(eff[1], 1.400, 0.015);  // paper: 1.41
  EXPECT_NEAR(eff[2], 1.778, 0.02);   // paper: 1.76
}

TEST(GandivaFair, CheatingRaisesSecondRoundPrice) {
  // §2.4: when u1 reports 2.8 the second-round price moves 2.5 -> 2.9 and
  // X_f = <1, 0.11; 0, 0.45; 0, 0.44>.
  const core::SpeedupMatrix lied({{1, 2.8}, {1, 3}, {1, 4}});
  const core::Allocation x = GandivaFairScheduler().allocate(lied, kPaperM, {});
  EXPECT_NEAR(x.at(0, 1), 0.107, 0.005);  // paper's 0.11
  EXPECT_NEAR(x.at(1, 1), 0.448, 0.005);  // paper's 0.45
  EXPECT_NEAR(x.at(2, 1), 0.444, 0.005);  // paper's 0.44

  // The liar's true efficiency (speedup 2) improved: 1.18 -> 1.21, which is
  // the strategy-proofness violation the paper calls out.
  const double honest_eff =
      GandivaFairScheduler().allocate(kPaperW, kPaperM, {}).efficiency(0, kPaperW);
  EXPECT_GT(kPaperW.dot(0, x.row(0)), honest_eff + 1e-3);
}

TEST(GandivaFair, IsSharingIncentiveButNotEnvyFree) {
  const core::Allocation x = GandivaFairScheduler().allocate(kPaperW, kPaperM, {});
  EXPECT_TRUE(core::check_sharing_incentive(kPaperW, x, kPaperM).sharing_incentive);
  // §2.4: u3 prefers u2's allocation.
  const core::EnvyReport envy = core::check_envy_freeness(kPaperW, x);
  EXPECT_FALSE(envy.envy_free);
  EXPECT_EQ(envy.envious_user, 2u);
  EXPECT_EQ(envy.envied_user, 1u);
}

TEST(GandivaFair, IdenticalUsersDoNotTrade) {
  const core::SpeedupMatrix w({{1, 2}, {1, 2}});
  const core::Allocation x = GandivaFairScheduler().allocate(w, {4.0, 4.0}, {});
  for (std::size_t l = 0; l < 2; ++l) {
    EXPECT_NEAR(x.at(l, 0), 2.0, 1e-9);
    EXPECT_NEAR(x.at(l, 1), 2.0, 1e-9);
  }
}

TEST(GandivaFair, ThreeTypesConservesCapacity) {
  const core::SpeedupMatrix w({{1, 1.3, 1.4}, {1, 1.5, 2.2}, {1, 1.2, 3.0}});
  const std::vector<double> m = {8.0, 8.0, 8.0};
  const core::Allocation x = GandivaFairScheduler().allocate(w, m, {});
  EXPECT_TRUE(x.respects_capacity(m));
  const std::vector<double> used = x.used_per_type();
  for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(used[j], m[j], 1e-9);
  // Trading must never hurt anyone relative to max-min (sharing incentive).
  EXPECT_TRUE(core::check_sharing_incentive(w, x, m).sharing_incentive);
}

TEST(Gavel, EqualisesRatiosOnPaperExample) {
  // Exact optimum of Gavel's max-min LP on the §2.4 instance: t* = 54/49.
  // (The paper's table shows a slightly sub-optimal allocation with ratios
  // 1.08-1.09; see finding F1 in docs/BENCHMARKS.md.)
  const core::Allocation x = GavelScheduler().allocate(kPaperW, kPaperM, {});
  const std::vector<double> eff = x.efficiencies(kPaperW);
  const std::vector<double> isolated = {1.0, 4.0 / 3.0, 5.0 / 3.0};
  const double t_star = 54.0 / 49.0;
  for (std::size_t l = 0; l < 3; ++l) {
    EXPECT_GE(eff[l] / isolated[l], t_star - 1e-6) << "user " << l;
  }
  EXPECT_TRUE(x.respects_capacity(kPaperM));
  EXPECT_TRUE(core::check_sharing_incentive(kPaperW, x, kPaperM).sharing_incentive);
}

TEST(EfficiencyMax, AssignsEachTypeToBestUser) {
  const core::Allocation x = EfficiencyMaxScheduler().allocate(kPaperW, kPaperM, {});
  // GPU1 -> user 0 (tie broken by lowest index), GPU2 -> user 2.
  EXPECT_NEAR(x.at(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(x.at(2, 1), 1.0, 1e-12);
  EXPECT_NEAR(x.total_efficiency(kPaperW), core::max_total_efficiency(kPaperW, kPaperM),
              1e-12);
}

TEST(OefSchedulerAdapter, MatchesCoreAllocators) {
  const OefScheduler coop(core::OefAllocator::Mode::kCooperative);
  const core::Allocation x = coop.allocate(kPaperW, kPaperM, {});
  EXPECT_NEAR(x.total_efficiency(kPaperW), 4.5, 1e-6);  // §2.4 Eq. (2)
  EXPECT_EQ(coop.name(), "OEF-coop");
}

TEST(Registry, CreatesEveryRegisteredScheduler) {
  for (const std::string& name : scheduler_names()) {
    const auto scheduler = make_scheduler(name);
    ASSERT_NE(scheduler, nullptr) << name;
    EXPECT_EQ(scheduler->name(), name);
    const core::Allocation x = scheduler->allocate(kPaperW, kPaperM, {});
    EXPECT_TRUE(x.respects_capacity(kPaperM)) << name;
  }
}

TEST(Baselines, TotalEfficiencyOrderingOnPaperExample) {
  // OEF-coop (4.5) must beat Gavel's exact optimum (4.41) and Gandiva (4.36)
  // on the §2.4 instance; Max-Min trails everyone.
  const double coop = make_scheduler("OEF-coop")
                          ->allocate(kPaperW, kPaperM, {})
                          .total_efficiency(kPaperW);
  const double gavel = make_scheduler("Gavel")
                           ->allocate(kPaperW, kPaperM, {})
                           .total_efficiency(kPaperW);
  const double gandiva = make_scheduler("GandivaFair")
                             ->allocate(kPaperW, kPaperM, {})
                             .total_efficiency(kPaperW);
  const double maxmin = make_scheduler("MaxMin")
                            ->allocate(kPaperW, kPaperM, {})
                            .total_efficiency(kPaperW);
  EXPECT_GT(coop, gavel);
  EXPECT_GT(gavel, gandiva);  // exact Gavel beats Gandiva here (F1, docs/BENCHMARKS.md)
  EXPECT_GT(gandiva, maxmin);
  EXPECT_NEAR(maxmin, 4.0, 1e-9);
}

}  // namespace
}  // namespace oef::sched

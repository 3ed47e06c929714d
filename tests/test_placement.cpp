// Placement layer: deviation rounding (§4.3) and device packing (§4.4).
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "cluster/cluster.h"
#include "placement/packer.h"
#include "placement/rounding.h"
#include "workload/job.h"

namespace oef::placement {
namespace {

core::Allocation make_ideal(std::vector<std::vector<double>> rows) {
  return core::Allocation(std::move(rows));
}

TEST(Rounding, IntegralIdealPassesThrough) {
  DeviationRounder rounder(2, 2);
  const auto real = rounder.round(make_ideal({{2.0, 1.0}, {1.0, 3.0}}), {3.0, 4.0}, {1, 1});
  EXPECT_EQ(real[0][0], 2);
  EXPECT_EQ(real[0][1], 1);
  EXPECT_EQ(real[1][0], 1);
  EXPECT_EQ(real[1][1], 3);
}

TEST(Rounding, NeverExceedsCapacity) {
  DeviationRounder rounder(3, 1);
  for (int round = 0; round < 50; ++round) {
    const auto real =
        rounder.round(make_ideal({{0.7}, {0.7}, {0.6}}), {2.0}, {1, 1, 1});
    const int total = real[0][0] + real[1][0] + real[2][0];
    EXPECT_LE(total, 2);
  }
}

TEST(Rounding, LongRunAverageConvergesToIdeal) {
  // x = 0.5 of one device: the user should get the device every other round.
  DeviationRounder rounder(2, 1);
  int user0_total = 0;
  const int rounds = 100;
  for (int round = 0; round < rounds; ++round) {
    const auto real = rounder.round(make_ideal({{0.5}, {0.5}}), {1.0}, {1, 1});
    user0_total += real[0][0];
    EXPECT_LE(real[0][0] + real[1][0], 1);
  }
  EXPECT_NEAR(static_cast<double>(user0_total) / rounds, 0.5, 0.05);
}

TEST(Rounding, FractionalSharesAlternateFairly) {
  // Three users sharing 2 devices at 2/3 each: every user must be served
  // within any 3-round window on average.
  DeviationRounder rounder(3, 1);
  std::vector<int> totals(3, 0);
  for (int round = 0; round < 99; ++round) {
    const auto real = rounder.round(
        make_ideal({{2.0 / 3}, {2.0 / 3}, {2.0 / 3}}), {2.0}, {1, 1, 1});
    for (int l = 0; l < 3; ++l) totals[l] += real[l][0];
  }
  for (int l = 0; l < 3; ++l) EXPECT_NEAR(totals[l], 66, 2);
}

TEST(Rounding, MinDemandFloorsSmallGrants) {
  // User 0's jobs need 4 workers; a grant of 1-3 devices is useless and must
  // be floored to zero (devices go to user 1, who can use them).
  DeviationRounder rounder(2, 1);
  const auto real = rounder.round(make_ideal({{2.0}, {6.0}}), {8.0}, {4, 1});
  EXPECT_EQ(real[0][0], 0);
  EXPECT_EQ(real[1][0], 8);  // work conserving: freed devices redistributed
}

TEST(Rounding, StarvedUserEventuallyServed) {
  // With ideal 2.0 but demand 4, deviation accumulates until a full 4-pack is
  // granted (the paper's starvation-freedom argument).
  DeviationRounder rounder(2, 1);
  bool served = false;
  for (int round = 0; round < 10 && !served; ++round) {
    const auto real = rounder.round(make_ideal({{2.0}, {6.0}}), {8.0}, {4, 1});
    served = real[0][0] >= 4;
  }
  EXPECT_TRUE(served);
}

TEST(Rounding, DeviationResizeKeepsExistingUsers) {
  DeviationRounder rounder(1, 1);
  (void)rounder.round(make_ideal({{0.5}}), {1.0}, {1});
  EXPECT_NE(rounder.deviation(0, 0), 0.0);
  rounder.resize(3);
  EXPECT_NE(rounder.deviation(0, 0), 0.0);
  EXPECT_EQ(rounder.deviation(2, 0), 0.0);
}

class PackerTest : public ::testing::Test {
 protected:
  PackerTest() : cluster_(cluster::make_paper_cluster()) {}

  workload::Job make_job(workload::JobId id, std::size_t workers) {
    workload::Job job;
    job.id = id;
    job.tenant = 0;
    job.model_name = "VGG16";
    job.num_workers = workers;
    job.total_iterations = 1000;
    return job;
  }

  cluster::Cluster cluster_;
};

TEST_F(PackerTest, SingleJobSingleHost) {
  const workload::Job job = make_job(0, 4);
  UserPackRequest request;
  request.grant = {4, 0, 0};
  request.jobs = {&job};
  const PlacementPlan plan = Packer(cluster_).pack({request});
  ASSERT_EQ(plan.placements.size(), 1u);
  EXPECT_EQ(plan.placements[0].devices.size(), 4u);
  EXPECT_FALSE(plan.placements[0].cross_host);
  EXPECT_FALSE(plan.placements[0].cross_type);
  EXPECT_EQ(plan.cross_type_jobs, 0u);
  EXPECT_EQ(plan.straggler_workers, 0u);
}

TEST_F(PackerTest, CrossTypeJobRunsAtSlowestAndCountsStragglers) {
  const workload::Job job = make_job(0, 4);
  UserPackRequest request;
  request.grant = {2, 2, 0};  // must span 3070 + 3080
  request.jobs = {&job};
  const PlacementPlan plan = Packer(cluster_).pack({request});
  ASSERT_EQ(plan.placements.size(), 1u);
  EXPECT_TRUE(plan.placements[0].cross_type);
  EXPECT_EQ(plan.placements[0].slowest_type, 0u);
  EXPECT_EQ(plan.placements[0].straggler_workers, 2u);  // the two 3080 workers
  EXPECT_EQ(plan.cross_type_jobs, 1u);
}

TEST_F(PackerTest, PrefersSingleTypeWhenPossible) {
  const workload::Job job = make_job(0, 2);
  UserPackRequest request;
  request.grant = {1, 3, 0};  // 2 fits entirely on type 1
  request.jobs = {&job};
  const PlacementPlan plan = Packer(cluster_).pack({request});
  ASSERT_EQ(plan.placements.size(), 1u);
  EXPECT_FALSE(plan.placements[0].cross_type);
  EXPECT_EQ(plan.placements[0].slowest_type, 1u);
  EXPECT_EQ(plan.idle_devices, 2u);  // 1x t0 + 1x t1 unused
}

TEST_F(PackerTest, JobSkippedWhenGrantTooSmall) {
  const workload::Job big = make_job(0, 4);
  const workload::Job small = make_job(1, 1);
  UserPackRequest request;
  request.grant = {2, 0, 0};
  request.jobs = {&big, &small};  // big first (starvation order)
  const PlacementPlan plan = Packer(cluster_).pack({request});
  // The 4-worker job cannot run on 2 devices; the 1-worker job can.
  ASSERT_EQ(plan.placements.size(), 1u);
  EXPECT_EQ(plan.placements[0].job, 1u);
  EXPECT_EQ(plan.idle_devices, 1u);
}

TEST_F(PackerTest, LargeJobsGetConsolidationPriority) {
  // Two users: user A has a 4-worker job, user B four 1-worker jobs, all on
  // type 0 (8 devices on 2 hosts of 4). With large-job priority the 4-worker
  // job gets a whole host; without it, placement order can fragment it.
  const workload::Job big = make_job(0, 4);
  const workload::Job s1 = make_job(1, 1);
  const workload::Job s2 = make_job(2, 1);
  const workload::Job s3 = make_job(3, 1);
  const workload::Job s4 = make_job(4, 1);
  UserPackRequest user_a;
  user_a.grant = {4, 0, 0};
  user_a.jobs = {&big};
  UserPackRequest user_b;
  user_b.grant = {4, 0, 0};
  user_b.jobs = {&s1, &s2, &s3, &s4};

  PackerOptions with_priority;
  with_priority.prioritize_large_jobs = true;
  const PlacementPlan plan = Packer(cluster_, with_priority).pack({user_b, user_a});
  ASSERT_EQ(plan.placements.size(), 5u);
  // The big job is placed first and lands on one host.
  EXPECT_EQ(plan.placements[0].devices.size(), 4u);
  EXPECT_FALSE(plan.placements[0].cross_host);
  EXPECT_EQ(plan.cross_host_jobs, 0u);
}

TEST_F(PackerTest, GrantsAreNeverExceeded) {
  const workload::Job j1 = make_job(0, 2);
  const workload::Job j2 = make_job(1, 2);
  const workload::Job j3 = make_job(2, 2);
  UserPackRequest request;
  request.grant = {4, 0, 0};
  request.jobs = {&j1, &j2, &j3};
  const PlacementPlan plan = Packer(cluster_).pack({request});
  EXPECT_EQ(plan.placements.size(), 2u);  // only 4 devices granted
  std::size_t devices = 0;
  for (const auto& p : plan.placements) devices += p.devices.size();
  EXPECT_EQ(devices, 4u);
}

TEST_F(PackerTest, MultipleUsersShareTypesWithoutCollision) {
  const workload::Job a = make_job(0, 4);
  const workload::Job b = make_job(1, 4);
  const workload::Job c = make_job(2, 4);
  UserPackRequest ua;
  ua.grant = {4, 0, 0};
  ua.jobs = {&a};
  UserPackRequest ub;
  ub.grant = {4, 0, 0};
  ub.jobs = {&b};
  UserPackRequest uc;
  uc.grant = {0, 8, 0};
  uc.jobs = {&c};
  const PlacementPlan plan = Packer(cluster_).pack({ua, ub, uc});
  ASSERT_EQ(plan.placements.size(), 3u);
  std::set<cluster::DeviceId> seen;
  for (const auto& p : plan.placements) {
    for (const cluster::DeviceId id : p.devices) {
      EXPECT_TRUE(seen.insert(id).second) << "device double-assigned";
    }
  }
}

}  // namespace
}  // namespace oef::placement

#include "cluster/cluster.h"

#include <gtest/gtest.h>

namespace oef::cluster {
namespace {

TEST(Cluster, PaperClusterShape) {
  const Cluster cluster = make_paper_cluster();
  EXPECT_EQ(cluster.num_gpu_types(), 3u);
  EXPECT_EQ(cluster.total_devices(), 24u);
  EXPECT_EQ(cluster.hosts().size(), 6u);
  EXPECT_EQ(cluster.type_name(0), "RTX3070");
  EXPECT_EQ(cluster.type_name(2), "RTX3090");
  const std::vector<double> m = cluster.capacities();
  ASSERT_EQ(m.size(), 3u);
  for (const double c : m) EXPECT_DOUBLE_EQ(c, 8.0);
}

TEST(Cluster, DevicesBelongToTheirHost) {
  const Cluster cluster = make_paper_cluster();
  for (const Host& host : cluster.hosts()) {
    EXPECT_EQ(host.devices.size(), 4u);
    for (const DeviceId id : host.devices) {
      EXPECT_EQ(cluster.device(id).host, host.id);
      EXPECT_EQ(cluster.device(id).gpu_type, host.gpu_type);
    }
  }
}

TEST(Cluster, EveryTypeHasTwoHosts) {
  const Cluster cluster = make_paper_cluster();
  std::vector<std::size_t> hosts_per_type(cluster.num_gpu_types(), 0);
  for (const Host& host : cluster.hosts()) ++hosts_per_type[host.gpu_type];
  EXPECT_EQ(hosts_per_type, (std::vector<std::size_t>{2, 2, 2}));
}

TEST(Cluster, ScaleClusterHandlesRemainders) {
  const Cluster cluster = make_scale_cluster(10, 6);
  EXPECT_EQ(cluster.num_gpu_types(), 10u);
  EXPECT_EQ(cluster.total_devices(), 60u);
  // 6 devices per type = one full host of 4 + one remainder host of 2.
  std::vector<std::size_t> type0_hosts;
  for (const Host& host : cluster.hosts()) {
    if (host.gpu_type == 0) type0_hosts.push_back(host.devices.size());
  }
  EXPECT_EQ(type0_hosts, (std::vector<std::size_t>{4, 2}));
}

TEST(ClusterBuilder, IncrementalConstruction) {
  ClusterBuilder builder;
  const GpuTypeId slow = builder.add_gpu_type("slow");
  const GpuTypeId fast = builder.add_gpu_type("fast");
  builder.add_host("h0", slow, 2);
  builder.add_host("h1", fast, 3);
  const Cluster cluster = builder.build();
  EXPECT_EQ(cluster.total_devices(), 5u);
  EXPECT_EQ(cluster.capacities()[0], 2.0);
  EXPECT_EQ(cluster.capacities()[1], 3.0);
}

}  // namespace
}  // namespace oef::cluster

// Cluster topology: hosts, each carrying several devices of a single GPU type
// (the paper's testbed co-locates 4 GPUs of the same type per host).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "cluster/gpu_type.h"

namespace oef::cluster {

using HostId = std::size_t;
using DeviceId = std::size_t;

struct Host {
  HostId id = 0;
  std::string name;
  GpuTypeId gpu_type = 0;
  /// Global ids of the devices on this host.
  std::vector<DeviceId> devices;
};

struct Device {
  DeviceId id = 0;
  GpuTypeId gpu_type = 0;
  HostId host = 0;
};

/// Immutable cluster inventory. Build with ClusterBuilder.
class Cluster {
 public:
  [[nodiscard]] std::size_t num_gpu_types() const { return type_names_.size(); }
  [[nodiscard]] const std::string& type_name(GpuTypeId type) const;
  [[nodiscard]] const std::vector<Host>& hosts() const { return hosts_; }
  [[nodiscard]] const std::vector<Device>& devices() const { return devices_; }
  [[nodiscard]] const Host& host(HostId id) const;
  [[nodiscard]] const Device& device(DeviceId id) const;

  /// Devices per type, indexed by GpuTypeId — the capacity vector m of §2.3.
  [[nodiscard]] std::vector<double> capacities() const;
  [[nodiscard]] std::size_t total_devices() const { return devices_.size(); }

 private:
  friend class ClusterBuilder;
  std::vector<std::string> type_names_;
  std::vector<Host> hosts_;
  std::vector<Device> devices_;
};

/// Incremental cluster construction. GPU types must be added slowest → fastest.
class ClusterBuilder {
 public:
  /// Registers a GPU type; returns its id. Order defines the speed ordering.
  GpuTypeId add_gpu_type(std::string name);

  /// Adds a host with `devices` GPUs of one type; returns the host id.
  HostId add_host(std::string name, GpuTypeId type, std::size_t devices);

  /// Convenience: adds `num_hosts` hosts with `devices_per_host` GPUs each.
  void add_hosts(const std::string& name_prefix, GpuTypeId type, std::size_t num_hosts,
                 std::size_t devices_per_host);

  [[nodiscard]] Cluster build() const;

 private:
  Cluster cluster_;
};

/// The paper's testbed (§6.1.1): 8× RTX 3070, 8× 3080, 8× 3090; 4 GPUs/host.
[[nodiscard]] Cluster make_paper_cluster();

/// A larger heterogeneous cluster with `num_types` GPU types and
/// `devices_per_type` devices each (4 per host), for scalability experiments.
[[nodiscard]] Cluster make_scale_cluster(std::size_t num_types, std::size_t devices_per_type);

}  // namespace oef::cluster

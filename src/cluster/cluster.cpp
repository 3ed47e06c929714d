#include "cluster/cluster.h"

#include "common/check.h"

namespace oef::cluster {

const std::string& Cluster::type_name(GpuTypeId type) const {
  OEF_CHECK(type < type_names_.size());
  return type_names_[type];
}

const Host& Cluster::host(HostId id) const {
  OEF_CHECK(id < hosts_.size());
  return hosts_[id];
}

const Device& Cluster::device(DeviceId id) const {
  OEF_CHECK(id < devices_.size());
  return devices_[id];
}

std::vector<double> Cluster::capacities() const {
  std::vector<double> m(type_names_.size(), 0.0);
  for (const Device& device : devices_) m[device.gpu_type] += 1.0;
  return m;
}

GpuTypeId ClusterBuilder::add_gpu_type(std::string name) {
  cluster_.type_names_.push_back(std::move(name));
  return cluster_.type_names_.size() - 1;
}

HostId ClusterBuilder::add_host(std::string name, GpuTypeId type, std::size_t devices) {
  OEF_CHECK(type < cluster_.type_names_.size());
  Host host;
  host.id = cluster_.hosts_.size();
  host.name = std::move(name);
  host.gpu_type = type;
  for (std::size_t d = 0; d < devices; ++d) {
    Device device;
    device.id = cluster_.devices_.size();
    device.gpu_type = type;
    device.host = host.id;
    host.devices.push_back(device.id);
    cluster_.devices_.push_back(device);
  }
  cluster_.hosts_.push_back(std::move(host));
  return cluster_.hosts_.back().id;
}

void ClusterBuilder::add_hosts(const std::string& name_prefix, GpuTypeId type,
                               std::size_t num_hosts, std::size_t devices_per_host) {
  for (std::size_t h = 0; h < num_hosts; ++h) {
    add_host(name_prefix + "-" + std::to_string(h), type, devices_per_host);
  }
}

Cluster ClusterBuilder::build() const { return cluster_; }

Cluster make_paper_cluster() {
  ClusterBuilder builder;
  const GpuTypeId rtx3070 = builder.add_gpu_type("RTX3070");
  const GpuTypeId rtx3080 = builder.add_gpu_type("RTX3080");
  const GpuTypeId rtx3090 = builder.add_gpu_type("RTX3090");
  builder.add_hosts("host-3070", rtx3070, 2, 4);
  builder.add_hosts("host-3080", rtx3080, 2, 4);
  builder.add_hosts("host-3090", rtx3090, 2, 4);
  return builder.build();
}

Cluster make_scale_cluster(std::size_t num_types, std::size_t devices_per_type) {
  OEF_CHECK(num_types > 0);
  OEF_CHECK(devices_per_type > 0);
  ClusterBuilder builder;
  for (std::size_t t = 0; t < num_types; ++t) {
    const GpuTypeId type = builder.add_gpu_type("gpu-type-" + std::to_string(t));
    const std::size_t per_host = 4;
    const std::size_t full_hosts = devices_per_type / per_host;
    builder.add_hosts("host-t" + std::to_string(t), type, full_hosts, per_host);
    const std::size_t remainder = devices_per_type % per_host;
    if (remainder > 0) {
      builder.add_host("host-t" + std::to_string(t) + "-r", type, remainder);
    }
  }
  return builder.build();
}

}  // namespace oef::cluster

#include "core/virtual_users.h"

#include "common/check.h"

namespace oef::core {

VirtualUserMap expand_tenants(const std::vector<TenantProfile>& tenants) {
  OEF_CHECK_MSG(!tenants.empty(), "need at least one tenant");
  VirtualUserMap map;
  std::vector<std::vector<double>> rows;
  for (const TenantProfile& tenant : tenants) {
    OEF_CHECK_MSG(tenant.weight > 0.0, "tenant weight must be positive");
    OEF_CHECK_MSG(!tenant.job_types.empty(), "tenant needs at least one job type");
    const double multiplicity =
        tenant.weight / static_cast<double>(tenant.job_types.size());
    for (const JobTypeProfile& job_type : tenant.job_types) {
      rows.push_back(job_type.speedups);
      map.multiplicities.push_back(multiplicity);
    }
  }
  map.matrix = SpeedupMatrix(std::move(rows));
  return map;
}

}  // namespace oef::core

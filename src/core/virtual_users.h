// Tenant → virtual-user expansion (§4.2.3–4.2.4).
//
// A tenant with weight π running T job types is expanded into T virtual
// users, one per job type, each with multiplicity π/T. Callers read the
// allocation per virtual row (one job type of one tenant); nothing sums it
// back per tenant. This is the multiplicity formulation of the paper's
// replication construction (see core/oef.h for the equivalence).
#pragma once

#include <vector>

#include "core/speedup_matrix.h"

namespace oef::core {

/// One job type's profiled speedup vector within a tenant.
struct JobTypeProfile {
  std::vector<double> speedups;  // slowest type first; will be normalised
};

struct TenantProfile {
  double weight = 1.0;
  std::vector<JobTypeProfile> job_types;
};

struct VirtualUserMap {
  /// One row per virtual user.
  SpeedupMatrix matrix;
  /// Multiplicity of each virtual row (tenant weight / #job types).
  std::vector<double> multiplicities;
};

/// Expands tenants into virtual users. Every tenant needs weight > 0 and at
/// least one job type.
[[nodiscard]] VirtualUserMap expand_tenants(const std::vector<TenantProfile>& tenants);

}  // namespace oef::core

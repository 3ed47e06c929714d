// Catalogue of GPU performance characteristics.
//
// The paper profiles real RTX 3070/3080/3090 devices; here each GPU is
// described by three scaling factors relative to the reference device
// (RTX 3070): raw compute, memory bandwidth, and kernel dispatch latency.
// The analytic model in dl_models.h turns these into per-model speedups.
#pragma once

#include <string>
#include <vector>

namespace oef::workload {

struct GpuSpec {
  std::string name;
  /// FP32 throughput relative to the reference device (>= 1 for faster GPUs).
  double compute_scale = 1.0;
  /// Memory bandwidth relative to the reference device.
  double bandwidth_scale = 1.0;
  /// Kernel dispatch/latency advantage relative to the reference device
  /// (higher = lower per-kernel latency).
  double latency_scale = 1.0;
};

/// Lookup table from GPU name to spec; names must be unique.
class GpuCatalog {
 public:
  void add(GpuSpec spec);
  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] const GpuSpec& get(const std::string& name) const;
  [[nodiscard]] const std::vector<GpuSpec>& specs() const { return specs_; }

 private:
  std::vector<GpuSpec> specs_;
};

/// The paper's testbed GPUs (RTX 3070 reference, 3080, 3090) with scales
/// derived from the published hardware specs (20.3/29.8/35.6 TFLOPS fp32,
/// 448/760/936 GB/s).
[[nodiscard]] GpuCatalog make_paper_catalog();

}  // namespace oef::workload

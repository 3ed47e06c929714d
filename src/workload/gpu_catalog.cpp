#include "workload/gpu_catalog.h"

#include "common/check.h"

namespace oef::workload {

void GpuCatalog::add(GpuSpec spec) {
  OEF_CHECK_MSG(!contains(spec.name), "duplicate GPU name");
  specs_.push_back(std::move(spec));
}

bool GpuCatalog::contains(const std::string& name) const {
  for (const GpuSpec& spec : specs_) {
    if (spec.name == name) return true;
  }
  return false;
}

const GpuSpec& GpuCatalog::get(const std::string& name) const {
  for (const GpuSpec& spec : specs_) {
    if (spec.name == name) return spec;
  }
  OEF_CHECK_MSG(false, "unknown GPU name");
  return specs_.front();  // unreachable
}

GpuCatalog make_paper_catalog() {
  GpuCatalog catalog;
  // Scales relative to the RTX 3070: compute = TFLOPS ratio, bandwidth = GB/s
  // ratio, latency from the clock/architecture advantage of each part.
  catalog.add({"RTX3070", 1.0, 1.0, 1.0});
  catalog.add({"RTX3080", 29.8 / 20.3, 760.0 / 448.0, 1.41});
  catalog.add({"RTX3090", 35.6 / 20.3, 936.0 / 448.0, 2.25});
  return catalog;
}

}  // namespace oef::workload

#include "workload/dl_models.h"

#include "common/check.h"

namespace oef::workload {

double iteration_time_ms(const DlModelSpec& model, const GpuSpec& gpu,
                         std::size_t batch_size) {
  OEF_CHECK(batch_size > 0);
  OEF_CHECK(model.reference_batch > 0);
  const double batch_ratio =
      static_cast<double>(batch_size) / static_cast<double>(model.reference_batch);
  const double compute = model.compute_ms * batch_ratio / gpu.compute_scale;
  const double memory = model.memory_ms * batch_ratio / gpu.bandwidth_scale;
  const double launch = model.launch_ms / gpu.latency_scale;
  const double host = model.host_ms * (0.5 + 0.5 * batch_ratio);
  return compute + memory + launch + host;
}

double throughput_samples_per_s(const DlModelSpec& model, const GpuSpec& gpu,
                                std::size_t batch_size) {
  const double ms = iteration_time_ms(model, gpu, batch_size);
  return static_cast<double>(batch_size) / (ms / 1000.0);
}

double speedup(const DlModelSpec& model, const GpuSpec& gpu, const GpuSpec& reference,
               std::size_t batch_size) {
  return iteration_time_ms(model, reference, batch_size) /
         iteration_time_ms(model, gpu, batch_size);
}

ModelZoo::ModelZoo() {
  // Component times (ms per iteration on the RTX 3070 at the reference batch)
  // chosen so that the resulting speedups match the paper's Fig. 1 anchors
  // (VGG 1.39× / LSTM 2.15× on the 3090) and give a diverse spread for the
  // remaining models. See tests/test_workload_models.cpp for the calibration
  // assertions.
  models_.push_back({"VGG16", /*compute=*/74.0, /*memory=*/9.0, /*launch=*/10.0,
                     /*host=*/55.0, /*reference_batch=*/64});
  models_.push_back({"ResNet50", 60.0, 30.0, 40.0, 20.0, 64});
  models_.push_back({"DenseNet121", 40.0, 70.0, 45.0, 10.0, 64});
  models_.push_back({"LSTM", 14.0, 8.0, 175.0, 3.0, 32});
  models_.push_back({"RNN", 10.0, 8.0, 120.0, 12.0, 32});
  models_.push_back({"Transformer", 90.0, 25.0, 20.0, 25.0, 32});
}

const DlModelSpec& ModelZoo::get(const std::string& name) const {
  for (const DlModelSpec& model : models_) {
    if (model.name == name) return model;
  }
  OEF_CHECK_MSG(false, "unknown model name");
  return models_.front();  // unreachable
}

bool ModelZoo::contains(const std::string& name) const {
  for (const DlModelSpec& model : models_) {
    if (model.name == name) return true;
  }
  return false;
}

std::vector<std::string> ModelZoo::names() const {
  std::vector<std::string> result;
  result.reserve(models_.size());
  for (const DlModelSpec& model : models_) result.push_back(model.name);
  return result;
}

}  // namespace oef::workload

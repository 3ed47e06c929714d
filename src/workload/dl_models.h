// Analytic DL training-throughput model.
//
// The paper profiles six models (VGG, ResNet, DenseNet / LSTM, RNN,
// Transformer) on real GPUs. Here each model's per-iteration time on the
// reference GPU is decomposed into four components that scale differently
// with hardware:
//   compute_ms  — GEMM/conv time, scales with the GPU's compute_scale
//   memory_ms   — activation/weight traffic, scales with bandwidth_scale
//   launch_ms   — kernel-dispatch-bound time (many tiny kernels; dominant for
//                 recurrent models), scales with latency_scale
//   host_ms     — CPU-side time (data loading, Python), hardware-independent
// This reproduces the qualitative Fig. 1 behaviour: compute-bound CNNs gain
// modest speedups on faster GPUs (VGG ≈ 1.39× on a 3090) while
// dispatch-bound recurrent models gain much more (LSTM ≈ 2.15×).
#pragma once

#include <string>
#include <vector>

#include "workload/gpu_catalog.h"

namespace oef::workload {

struct DlModelSpec {
  std::string name;
  /// Per-iteration time components on the reference GPU at reference_batch.
  double compute_ms = 0.0;
  double memory_ms = 0.0;
  double launch_ms = 0.0;
  double host_ms = 0.0;
  /// Batch size the components were measured at.
  std::size_t reference_batch = 64;
};

/// Per-iteration time (ms) of `model` on `gpu` at the given batch size.
/// Compute and memory scale linearly with batch; kernel-dispatch time is
/// batch-independent; host time is half-fixed, half-linear.
[[nodiscard]] double iteration_time_ms(const DlModelSpec& model, const GpuSpec& gpu,
                                       std::size_t batch_size);

/// Training throughput in samples/second.
[[nodiscard]] double throughput_samples_per_s(const DlModelSpec& model, const GpuSpec& gpu,
                                              std::size_t batch_size);

/// Speedup of `model` on `gpu` relative to `reference` at the same batch.
[[nodiscard]] double speedup(const DlModelSpec& model, const GpuSpec& gpu,
                             const GpuSpec& reference, std::size_t batch_size);

/// Model zoo matching the paper's workloads (§6.1.2): VGG16, ResNet50,
/// DenseNet121 on CIFAR-100; LSTM, RNN, Transformer on WikiText-2.
class ModelZoo {
 public:
  ModelZoo();

  [[nodiscard]] const DlModelSpec& get(const std::string& name) const;
  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] const std::vector<DlModelSpec>& models() const { return models_; }
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  std::vector<DlModelSpec> models_;
};

}  // namespace oef::workload

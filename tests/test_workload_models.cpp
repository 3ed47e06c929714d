// Workload substrate: GPU catalog, analytic throughput model (calibrated to
// the paper's Fig. 1 anchors), profiler error injection, trace generation.
#include <gtest/gtest.h>

#include <set>

#include "workload/dl_models.h"
#include "workload/gpu_catalog.h"
#include "workload/profiler.h"
#include "workload/trace.h"

namespace oef::workload {
namespace {

TEST(GpuCatalog, PaperCatalogHasTestbedTypes) {
  const GpuCatalog catalog = make_paper_catalog();
  EXPECT_TRUE(catalog.contains("RTX3070"));
  EXPECT_TRUE(catalog.contains("RTX3080"));
  EXPECT_TRUE(catalog.contains("RTX3090"));
  // Three specs, slowest first.
  ASSERT_EQ(catalog.specs().size(), 3u);
  EXPECT_EQ(catalog.specs().front().name, "RTX3070");
  EXPECT_DOUBLE_EQ(catalog.get("RTX3070").compute_scale, 1.0);
  EXPECT_GT(catalog.get("RTX3090").compute_scale, catalog.get("RTX3080").compute_scale);
}

TEST(DlModels, Fig1CalibrationAnchors) {
  // Fig. 1(a): VGG ~1.39x, LSTM ~2.15x on the RTX 3090 relative to the 3070.
  const GpuCatalog catalog = make_paper_catalog();
  const ModelZoo zoo;
  const GpuSpec& g3070 = catalog.get("RTX3070");
  const GpuSpec& g3090 = catalog.get("RTX3090");
  const double vgg = speedup(zoo.get("VGG16"), g3090, g3070, 64);
  const double lstm = speedup(zoo.get("LSTM"), g3090, g3070, 32);
  EXPECT_NEAR(vgg, 1.39, 0.05);
  EXPECT_NEAR(lstm, 2.15, 0.06);
}

TEST(DlModels, SpeedupsAreDiverseAcrossZoo) {
  const GpuCatalog catalog = make_paper_catalog();
  const ModelZoo zoo;
  const GpuSpec& ref = catalog.get("RTX3070");
  const GpuSpec& fast = catalog.get("RTX3090");
  double lo = 1e9;
  double hi = 0.0;
  for (const DlModelSpec& model : zoo.models()) {
    const double s = speedup(model, fast, ref, model.reference_batch);
    EXPECT_GT(s, 1.0) << model.name;   // 3090 always faster
    EXPECT_LT(s, 2.26) << model.name;  // bounded by the latency-scale ratio
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  EXPECT_GT(hi - lo, 0.5);  // the skew that motivates the paper
}

TEST(DlModels, MiddleGpuSitsBetween) {
  const GpuCatalog catalog = make_paper_catalog();
  const ModelZoo zoo;
  for (const DlModelSpec& model : zoo.models()) {
    const double s80 = speedup(model, catalog.get("RTX3080"), catalog.get("RTX3070"),
                               model.reference_batch);
    const double s90 = speedup(model, catalog.get("RTX3090"), catalog.get("RTX3070"),
                               model.reference_batch);
    EXPECT_GT(s80, 1.0) << model.name;
    EXPECT_LT(s80, s90) << model.name;
  }
}

TEST(DlModels, LargerBatchAmortisesLaunchOverhead) {
  // Launch-bound models gain speedup on fast GPUs as batch grows more slowly
  // than throughput; in absolute terms throughput must increase with batch.
  const GpuCatalog catalog = make_paper_catalog();
  const ModelZoo zoo;
  const DlModelSpec& lstm = zoo.get("LSTM");
  const GpuSpec& gpu = catalog.get("RTX3070");
  EXPECT_GT(throughput_samples_per_s(lstm, gpu, 64),
            throughput_samples_per_s(lstm, gpu, 32));
}

TEST(Profiler, ZeroErrorReturnsTrueSpeedups) {
  const GpuCatalog catalog = make_paper_catalog();
  const ModelZoo zoo;
  Profiler profiler(catalog, {"RTX3070", "RTX3080", "RTX3090"});
  const std::vector<double> profiled = profiler.profile(zoo.get("VGG16"), 64);
  const std::vector<double> truth = profiler.true_speedups(zoo.get("VGG16"), 64);
  ASSERT_EQ(profiled.size(), 3u);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(profiled[j], truth[j]);
  EXPECT_DOUBLE_EQ(profiled[0], 1.0);
}

TEST(Profiler, ErrorStaysWithinBoundAndRenormalises) {
  const GpuCatalog catalog = make_paper_catalog();
  const ModelZoo zoo;
  ProfilerOptions options;
  options.error_rate = 0.2;
  options.seed = 3;
  Profiler profiler(catalog, {"RTX3070", "RTX3080", "RTX3090"}, options);
  const std::vector<double> truth = profiler.true_speedups(zoo.get("LSTM"), 32);
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<double> profiled = profiler.profile(zoo.get("LSTM"), 32);
    EXPECT_DOUBLE_EQ(profiled[0], 1.0);  // renormalised base
    for (std::size_t j = 1; j < 3; ++j) {
      // Combined worst case of numerator and denominator error: 1.2/0.8.
      EXPECT_LT(profiled[j], truth[j] * 1.51);
      EXPECT_GT(profiled[j], truth[j] / 1.51);
    }
  }
}

TEST(Trace, GeneratesRequestedShape) {
  const ModelZoo zoo;
  TraceOptions options;
  options.num_tenants = 15;
  options.seed = 42;
  const Trace trace = generate_trace(zoo, options);
  EXPECT_EQ(trace.tenants.size(), 15u);
  std::size_t job_count = 0;
  for (const Tenant& tenant : trace.tenants) {
    EXPECT_FALSE(tenant.jobs.empty());
    job_count += tenant.jobs.size();
    for (const JobId id : tenant.jobs) {
      const Job& job = trace.jobs[id];
      EXPECT_EQ(job.tenant, tenant.id);
      EXPECT_GE(job.total_iterations, 100.0);
      EXPECT_TRUE(job.num_workers == 1 || job.num_workers == 2 || job.num_workers == 4);
      EXPECT_TRUE(zoo.contains(job.model_name));
    }
  }
  EXPECT_EQ(job_count, trace.jobs.size());
}

TEST(Trace, IsDeterministicPerSeed) {
  const ModelZoo zoo;
  TraceOptions options;
  options.num_tenants = 5;
  const Trace a = generate_trace(zoo, options);
  const Trace b = generate_trace(zoo, options);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].model_name, b.jobs[i].model_name);
    EXPECT_DOUBLE_EQ(a.jobs[i].total_iterations, b.jobs[i].total_iterations);
  }
}

TEST(Trace, MostTenantsAreSingleModel) {
  const ModelZoo zoo;
  TraceOptions options;
  options.num_tenants = 60;
  options.single_model_fraction = 0.9;
  options.seed = 11;
  const Trace trace = generate_trace(zoo, options);
  std::size_t single_model_tenants = 0;
  for (const Tenant& tenant : trace.tenants) {
    std::set<std::string> models;
    for (const JobId id : tenant.jobs) models.insert(trace.jobs[id].model_name);
    if (models.size() == 1) ++single_model_tenants;
  }
  EXPECT_GT(single_model_tenants, 45u);  // ~90% of 60, with slack
}

TEST(Trace, FourTenantMicroTrace) {
  const ModelZoo zoo;
  const Trace trace = make_four_tenant_trace(zoo, 3, 1000.0);
  ASSERT_EQ(trace.tenants.size(), 4u);
  EXPECT_EQ(trace.jobs.size(), 12u);
  EXPECT_EQ(trace.jobs[0].model_name, "VGG16");
  EXPECT_EQ(trace.jobs[11].model_name, "LSTM");
}

TEST(Trace, ArrivalsAreMonotoneWhenRateSet) {
  const ModelZoo zoo;
  TraceOptions options;
  options.num_tenants = 10;
  options.tenant_arrival_rate_per_hour = 6.0;
  const Trace trace = generate_trace(zoo, options);
  double previous = 0.0;
  for (const Tenant& tenant : trace.tenants) {
    EXPECT_GE(tenant.arrival_time, previous);
    previous = tenant.arrival_time;
  }
  EXPECT_GT(previous, 0.0);
}

}  // namespace
}  // namespace oef::workload

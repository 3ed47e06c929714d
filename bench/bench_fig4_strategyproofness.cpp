// Figure 4 reproduction: non-cooperative OEF timelines with four tenants.
// (a) Honest: all users see near-identical normalised throughput; user-4
//     (VGG batch) exits at minute 40 and the rest stay equalised.
// (b) User-1 (LSTM) inflates his speedups: he is penalised (less throughput
//     than honest), honest users improve, and overall throughput drops ~10%.
#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "sim/engine.h"
#include "workload/trace.h"

namespace {

using namespace oef;

workload::Trace make_fig4_trace(const workload::ModelZoo& zoo) {
  // Paper roles: user-1 runs LSTM jobs (the later cheater), user-4 runs a
  // batch of VGG jobs and exits at the 40th minute.
  const char* models[4] = {"LSTM", "ResNet50", "Transformer", "VGG16"};
  workload::Trace trace;
  for (std::size_t t = 0; t < 4; ++t) {
    workload::Tenant tenant;
    tenant.id = t;
    tenant.name = "user" + std::to_string(t + 1);
    for (std::size_t j = 0; j < 24; ++j) {
      workload::Job job;
      job.id = trace.jobs.size();
      job.tenant = t;
      job.model_name = models[t];
      job.batch_size = zoo.get(models[t]).reference_batch;
      job.num_workers = 1;
      job.total_iterations = 1e9;  // long-running; throughput is the metric
      trace.jobs.push_back(job);
      tenant.jobs.push_back(job.id);
    }
    trace.tenants.push_back(std::move(tenant));
  }
  return trace;
}

double tail_mean(const std::vector<double>& series, std::size_t from, std::size_t to) {
  double total = 0.0;
  std::size_t count = 0;
  for (std::size_t r = from; r < std::min(to, series.size()); ++r) {
    total += series[r];
    ++count;
  }
  return count > 0 ? total / static_cast<double>(count) : 0.0;
}

}  // namespace

int main() {
  bench::PaperFixture fixture;
  const std::size_t exit_round = 8;   // minute 40 of 5-minute rounds
  const std::size_t horizon = 18;     // 90 minutes

  sim::SimOptions base;
  base.scheduler = "OEF-noncoop";
  base.max_rounds = horizon;
  sim::ClusterEvent user4_exit;
  user4_exit.round = exit_round;
  user4_exit.kind = sim::ClusterEventKind::kTenantDeparture;
  user4_exit.tenant = 3;
  base.events.push_back(user4_exit);

  bench::print_header("Figure 4(a): honest users, non-cooperative OEF",
                      "four near-identical lines; user-4 exits at minute 40");
  const sim::SimResult honest =
      sim::run_simulation(fixture.cluster, fixture.catalog, fixture.gpu_names,
                          fixture.zoo, make_fig4_trace(fixture.zoo), base);
  {
    common::Table table({"minute", "user1", "user2", "user3", "user4"});
    for (std::size_t r = 0; r < honest.rounds.size(); r += 2) {
      std::vector<double> row;
      for (std::size_t t = 0; t < 4; ++t) {
        row.push_back(honest.tenant_actual_series(t)[r]);
      }
      table.add_numeric_row(std::to_string(r * 5), row, 2);
    }
    table.print();
    const double u1 = tail_mean(honest.tenant_actual_series(0), 2, exit_round);
    const double u2 = tail_mean(honest.tenant_actual_series(1), 2, exit_round);
    const double u3 = tail_mean(honest.tenant_actual_series(2), 2, exit_round);
    const double u4 = tail_mean(honest.tenant_actual_series(3), 2, exit_round);
    bench::print_check("users equalised before exit (max spread < 15%)",
                       std::max({u1, u2, u3, u4}) / std::min({u1, u2, u3, u4}) < 1.15);
    const double after1 = tail_mean(honest.tenant_actual_series(0), exit_round + 1, horizon);
    const double after3 = tail_mean(honest.tenant_actual_series(2), exit_round + 1, horizon);
    bench::print_check("remaining users still equalised after exit",
                       std::abs(after1 / after3 - 1.0) < 0.15);
    bench::print_check("remaining users gain from the exit", after1 > u1 * 1.05);
  }

  bench::print_header("Figure 4(b): user-1 inflates his speedup vector",
                      "cheater penalised; honest users improve; total drops ~10%");
  sim::SimOptions cheating = base;
  sim::ClusterEvent cheat;
  cheat.round = 0;
  cheat.kind = sim::ClusterEventKind::kMisreport;
  cheat.tenant = 0;
  cheat.factor = 1.35;
  cheating.events.push_back(cheat);
  const sim::SimResult lied =
      sim::run_simulation(fixture.cluster, fixture.catalog, fixture.gpu_names,
                          fixture.zoo, make_fig4_trace(fixture.zoo), cheating);
  {
    const double honest_u1 = tail_mean(honest.tenant_actual_series(0), 2, exit_round);
    const double lied_u1 = tail_mean(lied.tenant_actual_series(0), 2, exit_round);
    const double honest_u2 = tail_mean(honest.tenant_actual_series(1), 2, exit_round);
    const double lied_u2 = tail_mean(lied.tenant_actual_series(1), 2, exit_round);
    common::Table table({"series", "user1 (cheater)", "user2 (honest)"});
    table.add_numeric_row("honest run", {honest_u1, honest_u2}, 3);
    table.add_numeric_row("cheating run (true tput)", {lied_u1, lied_u2}, 3);
    table.print();
    bench::print_check("cheater loses true throughput", lied_u1 < honest_u1 + 1e-9);
    bench::print_check("honest users weakly improve", lied_u2 >= honest_u2 - 1e-6);

    double honest_total = 0.0;
    double lied_total = 0.0;
    for (std::size_t t = 0; t < 4; ++t) {
      honest_total += tail_mean(honest.tenant_actual_series(t), 2, exit_round);
      lied_total += tail_mean(lied.tenant_actual_series(t), 2, exit_round);
    }
    std::printf("  overall throughput: honest %.3f -> cheating %.3f (%.1f%%)\n",
                honest_total, lied_total, (lied_total / honest_total - 1.0) * 100.0);
    bench::print_check("overall throughput drops", lied_total < honest_total);
  }
  return 0;
}

// Figure 10: latency breakdown and KV-transfer time CDF.
//
// Left: the five-stage lifecycle breakdown (prefill queuing, prefill execution, transmission,
// decoding queuing, decoding execution) for OPT-175B on ShareGPT-like traffic under the
// Algorithm-2 placement. Paper's shape: transmission accounts for <0.1% of total time.
// Right: the CDF of absolute KV-cache transfer times for OPT-13B/66B/175B; paper: >95% of
// transfers under 30 ms despite the 25 Gbps cross-node network, because segment colocation
// keeps transfers on NVLink.
//
// Both panels render from the span recorder (trace/attribution.h): the ad-hoc collector
// arithmetic this bench used to carry now lives behind ComputeLatencyBreakdown /
// TransferTimes, which fold the per-request span timelines into the same stage extents
// bit for bit (trace_bitidentity_test proves the equivalence).
//
// Flags:
//   --smoke             200 requests per run instead of 800, for CI
//   --trace=PATH        export the OPT-175B breakdown run as Chrome trace-event JSON
//   --attribution=PATH  write the richer per-stage attribution table for the same run
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "trace/attribution.h"

namespace distserve {
namespace {

struct AppResult {
  metrics::LatencyBreakdown breakdown;
  std::vector<double> transfer_times;  // sorted, completed requests only
};

AppResult RunApp(const bench::Application& app, double per_gpu_rate, int requests,
                 placement::PlacementPlan* plan_out, trace::Recorder* recorder) {
  const cluster::ClusterSpec cluster = cluster::ClusterSpec::PaperTestbed();
  const auto dataset = workload::MakeDatasetByName(app.dataset_name);
  placement::PlannerInputs inputs = bench::MakePlannerInputs(app, cluster, dataset.get(), 1.0);
  placement::PlacementPlan plan = placement::LowNodeAffinityPlacement(inputs).plan;
  plan.num_prefill = 1;
  plan.num_decode = 1;
  *plan_out = plan;
  workload::TraceSpec spec;
  spec.rate = per_gpu_rate * plan.total_gpus();
  spec.num_requests = requests;
  spec.seed = 101;
  const bench::RunFn run = bench::MakeDistServeRunner(app.model, cluster, plan, recorder);
  run(workload::GenerateTrace(spec, *dataset));
  AppResult out;
  out.breakdown = trace::ComputeLatencyBreakdown(*recorder);
  out.transfer_times = trace::TransferTimes(*recorder);
  return out;
}

}  // namespace

int Main(int argc, char** argv) {
  bench::CommonFlags flags;
  if (!bench::ParseCommonFlags(argc, argv,
                               bench::kFlagSmoke | bench::kFlagTrace | bench::kFlagAttribution,
                               &flags)) {
    return 2;
  }
  const int requests = flags.smoke ? 200 : 800;

  bench::PrintBanner("Figure 10a: latency breakdown, OPT-175B on ShareGPT (DistServe-Low)");
  placement::PlacementPlan plan_175;
  trace::Recorder recorder_175;
  const AppResult results_175 = RunApp(bench::ChatbotOpt175B(), /*per_gpu_rate=*/0.12,
                                       requests, &plan_175, &recorder_175);
  const metrics::LatencyBreakdown& breakdown = results_175.breakdown;
  std::printf("plan: %s\n", plan_175.ToString().c_str());
  std::printf("%s\n", breakdown.ToString().c_str());
  std::printf("transmission share of total latency: %.4f%%\n",
              100.0 * breakdown.transfer / breakdown.total());
  if (!flags.trace_path.empty()) {
    recorder_175.WriteChromeJson(flags.trace_path);
  }
  if (!flags.attribution_path.empty()) {
    std::ofstream out(flags.attribution_path);
    out << trace::AttributionTable(recorder_175);
  }

  bench::PrintBanner("Figure 10b: KV-cache transfer time CDF per model");
  std::printf("%-12s %10s %10s %10s %10s %14s\n", "model", "p50", "p90", "p95", "p99",
              "frac<=30ms");
  const bench::Application apps[] = {bench::ChatbotOpt13B(), bench::ChatbotOpt66B(),
                                     bench::ChatbotOpt175B()};
  const double rates[] = {2.0, 0.4, 0.12};
  for (int i = 0; i < 3; ++i) {
    placement::PlacementPlan plan;
    trace::Recorder recorder;
    const AppResult results = RunApp(apps[i], rates[i], requests, &plan, &recorder);
    PercentileTracker tracker;
    for (double t : results.transfer_times) {
      tracker.Add(t);
    }
    std::printf("%-12s %8.2fms %8.2fms %8.2fms %8.2fms %13.1f%%\n",
                apps[i].model.name.c_str(), 1e3 * tracker.Percentile(50),
                1e3 * tracker.Percentile(90), 1e3 * tracker.Percentile(95),
                1e3 * tracker.Percentile(99), 100.0 * tracker.FractionAtOrBelow(0.030));
  }
  return 0;
}

}  // namespace distserve

int main(int argc, char** argv) { return distserve::Main(argc, argv); }

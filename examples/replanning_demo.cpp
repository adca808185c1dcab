// Replanning under workload drift (§4.3 "Replaning").
//
// A serving deployment planned for chatbot traffic watches its live request stream with the
// workload profiler. Mid-day, the traffic shifts to summarization-style requests (10x longer
// prompts at a lower rate). The replanner detects the drift, fits an empirical dataset from
// recent history, and recomputes the placement — this example shows the detection, the plan
// change, and the attainment before/after redeployment.
//
// --goodput-cache=PATH (env DISTSERVE_GOODPUT_CACHE fallback) persists the facade's goodput
// cache across invocations: a re-run starts warm, so the printed replan costs show disk-level
// reuse (note the cost lines then differ from a cold run's — the cache file is the point).
// --trace=PATH exports the stale-vs-replanned engine runs' per-request spans as Chrome
// trace-event JSON (two runs in one file; see DESIGN.md §14).
#include <cstdio>
#include <cstring>

#include "core/distserve.h"
#include "placement/goodput_cache_store.h"
#include "serving/replanner.h"
#include "trace/recorder.h"

int main(int argc, char** argv) {
  using namespace distserve;
  std::string cache_flag;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--goodput-cache=", 16) == 0) {
      cache_flag = argv[i] + 16;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else {
      std::fprintf(stderr, "usage: %s [--goodput-cache=PATH] [--trace=PATH]\n", argv[0]);
      return 2;
    }
  }
  trace::Recorder recorder;

  const cluster::ClusterSpec cluster = cluster::ClusterSpec::PaperTestbed();
  const model::ModelSpec model = model::ModelSpec::Opt66B();
  const metrics::SloSpec slo{2.5, 0.15};

  const auto chat = workload::MakeShareGptLike();
  // The after-shift regime: report-drafting traffic with ~6x longer prompts than chat.
  // (Full LongBench-scale prompts at this SLO would need Algorithm-1 territory; the point
  // here is detection + replanning, so the shift stays within one node's capabilities.)
  workload::LognormalDataset::Params report_params;
  report_params.name = "reports";
  report_params.input_mu = 7.2;
  report_params.input_sigma = 0.45;
  report_params.input_min = 256;
  report_params.input_max = 4096;
  report_params.output_mu = 5.2;
  report_params.output_sigma = 0.5;
  report_params.output_min = 16;
  report_params.output_max = 512;
  const workload::LognormalDataset summarize(report_params);

  // Phase 1: plan for the chatbot regime.
  DistServeOptions options;
  options.model = model;
  options.cluster = cluster;
  options.slo = slo;
  options.traffic_rate = 4.0;
  options.dataset = chat.get();
  options.search.num_requests = 250;
  options.search.min_trace_duration = 30.0;
  options.search.max_requests = 2500;
  options.search.bisection_iters = 6;
  options.goodput_cache_path = placement::GoodputCacheStore::ResolvePath(cache_flag);
  DistServe server(options);
  std::printf("Initial plan (chatbot regime): %s\n\n", server.Plan().ToString().c_str());

  // The drifting trace: 1500 chatbot requests at 4 rps, then summarization at 1 rps.
  workload::TraceSpec spec;
  spec.rate = 4.0;
  spec.num_requests = 2500;
  spec.seed = 33;
  const workload::Trace trace =
      workload::GenerateShiftingTrace(spec, *chat, summarize, /*shift_after=*/1500,
                                      /*second_rate=*/1.0);

  // Feed the stream through the replanner.
  int replans = 0;
  double replan_time = 0.0;
  std::optional<workload::EmpiricalDataset> fitted;
  double fitted_rate = 0.0;
  serving::Replanner::Options replan_options;
  replan_options.profiler.window_size = 256;
  replan_options.profiler.drift_threshold = 0.5;
  replan_options.cooldown = 120.0;
  serving::Replanner replanner(
      replan_options,
      [&](const workload::EmpiricalDataset& dataset, double rate, double when) {
        ++replans;
        replan_time = when;
        fitted = dataset;
        fitted_rate = rate;
      });
  for (const workload::Request& request : trace) {
    replanner.Observe(request);
  }
  std::printf("Drift detected: %d replan trigger(s); first at t=%.0fs (shift began at t=%.0fs)\n",
              replans, replan_time, trace[1500].arrival_time);
  if (!fitted.has_value()) {
    std::printf("No drift detected; nothing to do.\n");
    return 0;
  }
  Rng rng(1);
  const workload::LengthSample mean = fitted->MeanLengths(rng);
  std::printf("Fitted recent window: mean input %d tokens, mean output %d, rate %.2f rps\n\n",
              mean.input_len, mean.output_len, fitted_rate);

  // Phase 2: recompute placement on the fitted workload. Replan() reuses the facade's probe
  // traces and per-config goodput memos, so only configurations whose inputs actually changed
  // (here: all of them, since the dataset changed) are re-simulated — and a replan with
  // unchanged inputs would be answered entirely from cache.
  const placement::PlacementPlan stale_plan = server.Plan();
  server.Replan(&*fitted, fitted_rate);
  const placement::PlannerResult& details = server.PlannerDetails();
  std::printf("Replanned placement (fitted regime): %s\n", server.Plan().ToString().c_str());
  std::printf("Replan cost: %d configs, %d simulated, %d cache hits, %d pruned/skipped\n",
              details.configs_evaluated, details.simulations_run, details.cache_hits,
              details.simulations_skipped);

  // A second replan with unchanged inputs never re-simulates: every needed goodput is
  // answered from the facade's persistent cache.
  server.Replan(&*fitted, fitted_rate);
  const placement::PlannerResult& warm = server.PlannerDetails();
  std::printf("Same-inputs replan: %d configs, %d simulated, %d cache hits, %d pruned/skipped\n\n",
              warm.configs_evaluated, warm.simulations_run, warm.cache_hits,
              warm.simulations_skipped);

  // Compare old vs new plan on the post-shift traffic.
  workload::TraceSpec post;
  post.rate = 1.0;
  post.num_requests = 600;
  post.seed = 34;
  const workload::Trace post_trace = workload::GenerateTrace(post, summarize);
  auto run_with = [&](const placement::PlacementPlan& plan) {
    serving::ServingConfig config;
    config.model = model;
    config.cluster = cluster;
    config.plan = plan;
    config.recorder = trace_path.empty() ? nullptr : &recorder;
    serving::ServingSystem system(std::move(config));
    return system.Run(post_trace).ComputeAttainment(slo);
  };
  const metrics::Attainment stale = run_with(stale_plan);
  const metrics::Attainment fresh = run_with(server.Plan());
  std::printf("Post-shift attainment with the stale plan: %.1f%% | with the replanned plan: %.1f%%\n",
              100.0 * stale.both, 100.0 * fresh.both);
  std::printf("(The paper notes replanning runs in seconds and weight reloads in minutes,\n"
              "well under the hourly timescale of real workload shifts.)\n");
  if (!trace_path.empty()) {
    recorder.WriteChromeJson(trace_path);
  }
  return 0;
}

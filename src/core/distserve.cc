#include "core/distserve.h"

#include "common/logging.h"
#include "model/latency_model.h"
#include "placement/goodput_cache_store.h"

namespace distserve {

DistServe::DistServe(DistServeOptions options) : options_(std::move(options)) {
  DS_CHECK(options_.dataset != nullptr || options_.plan_override.has_value())
      << "DistServe needs a dataset to plan for (or an explicit plan override)";
  if (!options_.goodput_cache_path.empty()) {
    // The planner derives its latency model from the cluster's GPU spec; hash those
    // coefficients so entries persisted under a different calibration are rejected instead of
    // warm-starting the search from wrong goodputs. The GPU spec is fixed for the facade's
    // lifetime (ReplanDegraded changes node counts, not the GPU), so one hash suffices.
    goodput_cache_hash_ = placement::GoodputCacheStore::CalibrationHash(
        model::LatencyCoefficients::FromGpu(options_.cluster.gpu));
    const placement::GoodputCacheStore::LoadResult loaded = placement::GoodputCacheStore::Load(
        options_.goodput_cache_path, goodput_cache_hash_, &goodput_cache_);
    if (loaded.ok()) {
      DS_LOG(Info) << "goodput cache " << options_.goodput_cache_path << ": warm-started with "
                   << loaded.values_loaded << " entries, " << loaded.hints_loaded << " hints";
    }
    persisted_mutations_ = goodput_cache_.mutations();
  }
}

bool DistServe::ResolveHighAffinity() const {
  switch (options_.placement_mode) {
    case DistServeOptions::PlacementMode::kHighAffinity:
      return true;
    case DistServeOptions::PlacementMode::kLowAffinity:
      return false;
    case DistServeOptions::PlacementMode::kAuto:
      break;
  }
  // Heuristic from §3.3: cross-node transfers are invisible when the NIC can move a typical
  // request's KV cache well within a prefill execution (~100 ms). Otherwise stay intra-node.
  const workload::LengthSample mean = options_.dataset->MeanLengths(options_.search.seed);
  const double kv_bytes = static_cast<double>(mean.input_len) *
                          static_cast<double>(options_.model.kv_bytes_per_token());
  const double transfer_time = kv_bytes / options_.cluster.cross_node_bandwidth;
  return transfer_time < 0.010;  // 10 ms: negligible against TTFT-scale latencies
}

const placement::PlacementPlan& DistServe::Plan() { return PlannerDetails().plan; }

const placement::PlannerResult& DistServe::PlannerDetails() {
  if (planner_result_.has_value()) {
    return *planner_result_;
  }
  if (options_.plan_override.has_value()) {
    placement::PlannerResult result;
    result.plan = *options_.plan_override;
    used_high_affinity_ = !result.plan.intra_node_transfers;
    planner_result_ = std::move(result);
    return *planner_result_;
  }
  placement::PlannerInputs inputs;
  inputs.model = options_.model;
  inputs.cluster = options_.cluster;
  inputs.dataset = options_.dataset;
  inputs.slo = options_.slo;
  inputs.attainment_target = options_.attainment_target;
  inputs.traffic_rate = options_.traffic_rate;
  inputs.search = options_.search;
  inputs.search.trace_cache = &trace_cache_;
  inputs.goodput_cache = &goodput_cache_;
  inputs.num_threads = options_.planner_threads;
  used_high_affinity_ = ResolveHighAffinity();
  planner_result_ = used_high_affinity_ ? placement::HighNodeAffinityPlacement(inputs)
                                        : placement::LowNodeAffinityPlacement(inputs);
  DS_LOG(Info) << "DistServe plan: " << planner_result_->plan.ToString();
  if (!options_.goodput_cache_path.empty() &&
      goodput_cache_.mutations() != persisted_mutations_) {
    // Save-on-plan-complete: persist everything this search measured (merged over compatible
    // on-disk entries; newest wins) so the next process replans warm. A search answered
    // wholly from the cache measured nothing new, and the file already holds all of it.
    if (placement::GoodputCacheStore::Save(options_.goodput_cache_path, goodput_cache_hash_,
                                           goodput_cache_)) {
      persisted_mutations_ = goodput_cache_.mutations();
    }
  }
  return *planner_result_;
}

const placement::PlacementPlan& DistServe::Replan(const workload::Dataset* dataset,
                                                  double traffic_rate) {
  DS_CHECK(dataset != nullptr);
  options_.dataset = dataset;
  options_.traffic_rate = traffic_rate;
  options_.plan_override.reset();  // a replan is an explicit request to search again
  planner_result_.reset();
  return Plan();
}

const placement::PlacementPlan& DistServe::ReplanDegraded(
    const cluster::ClusterSpec& degraded_cluster, double traffic_rate) {
  DS_CHECK(options_.dataset != nullptr)
      << "ReplanDegraded needs a dataset (plan-override facades have nothing to search with)";
  DS_CHECK_GE(degraded_cluster.total_gpus(), 1);
  options_.cluster = degraded_cluster;
  options_.traffic_rate = traffic_rate;
  options_.plan_override.reset();
  planner_result_.reset();
  return Plan();
}

metrics::Collector DistServe::Serve(const workload::Trace& trace) {
  serving::ServingConfig config;
  config.model = options_.model;
  config.cluster = options_.cluster;
  config.plan = Plan();
  serving::ServingSystem system(std::move(config));
  return system.Run(trace);
}

metrics::Collector DistServe::ServeGenerated(double rate, int num_requests, uint64_t seed) {
  DS_CHECK(options_.dataset != nullptr);
  workload::TraceSpec spec;
  spec.rate = rate;
  spec.num_requests = num_requests;
  spec.seed = seed;
  return Serve(workload::GenerateTrace(spec, *options_.dataset));
}

}  // namespace distserve

// DistServe public facade: plan a placement, then serve traffic with it.
//
// This is the library's front door, mirroring the paper's workflow end to end:
//
//   DistServeOptions opts = {...model, cluster, SLOs, expected traffic...};
//   DistServe server(opts);
//   const placement::PlacementPlan& plan = server.Plan();    // Algorithm 1 or 2 + simulator
//   metrics::Collector results = server.Serve(trace);        // engine-level DES run
//   auto attainment = results.ComputeAttainment(opts.slo);
//
// Lower layers stay fully usable on their own (every bench drives them directly); the facade
// packages the common path for applications and the examples.
#ifndef DISTSERVE_CORE_DISTSERVE_H_
#define DISTSERVE_CORE_DISTSERVE_H_

#include <memory>
#include <optional>

#include "cluster/topology.h"
#include "metrics/collector.h"
#include "placement/algorithms.h"
#include "placement/placement.h"
#include "serving/serving_system.h"
#include "workload/dataset.h"
#include "workload/generator.h"

namespace distserve {

struct DistServeOptions {
  model::ModelSpec model;
  cluster::ClusterSpec cluster;
  metrics::SloSpec slo;
  double attainment_target = 0.9;

  // Expected traffic rate (requests/second); sizes the replication counts.
  double traffic_rate = 1.0;

  // Workload distribution the planner optimizes for. Non-owning; must outlive the facade.
  const workload::Dataset* dataset = nullptr;

  // Placement algorithm: high node-affinity clusters (Algorithm 1, cross-node transfers OK)
  // versus low node-affinity (Algorithm 2, stage-colocated segments). Defaults to choosing by
  // the cluster's cross-node bandwidth against the expected per-request KV volume.
  enum class PlacementMode { kAuto, kHighAffinity, kLowAffinity };
  PlacementMode placement_mode = PlacementMode::kAuto;

  // Planner simulation fidelity.
  placement::GoodputSearchOptions search;

  // Threads the placement search may use for candidate simulations (1 = serial; results are
  // bit-identical for any value — see DESIGN.md §10).
  int planner_threads = 1;

  // Persistent goodput-cache file (DESIGN.md §13). Empty = in-memory caching only. When set,
  // the facade loads compatible entries at construction — entries persisted under different
  // Appendix-A latency-model coefficients are rejected by calibration hash, never silently
  // reused — and saves the merged cache after every plan and replan that simulated
  // something, so the next process starts warm (an all-hit plan has nothing new to write).
  // Cached goodputs are exact simulation results, so a warm-started plan is bitwise
  // identical to the cold search's. Benches resolve their --goodput-cache flag (env
  // DISTSERVE_GOODPUT_CACHE fallback) into this field.
  std::string goodput_cache_path;

  // Manual plan override: skips the planner entirely when set.
  std::optional<placement::PlacementPlan> plan_override;
};

class DistServe {
 public:
  explicit DistServe(DistServeOptions options);

  // Computes (or returns the cached / overridden) placement plan.
  const placement::PlacementPlan& Plan();

  // Full planner result including evaluated candidates; runs Plan() if needed.
  const placement::PlannerResult& PlannerDetails();

  // Re-plans for a drifted workload (§4.3): swaps the dataset / expected rate and recomputes
  // the placement. The facade's probe-trace and goodput caches persist across replans, so
  // configs whose inputs did not change are answered without re-simulation
  // (PlannerDetails().cache_hits) and changed ones warm-start their rate search. `dataset` is
  // non-owning and must outlive the facade; pass the current dataset to re-plan for a rate
  // change alone.
  const placement::PlacementPlan& Replan(const workload::Dataset* dataset, double traffic_rate);

  // Re-plans after failures shrank the cluster (§4.3 extended): swaps the topology for the
  // degraded one (see cluster::ClusterSpec::Degraded) and recomputes the placement with the
  // current dataset. The goodput cache keys per-config results by parallelism and rate — not
  // by cluster size — so every configuration already simulated on the healthy cluster is
  // answered from cache; only the feasibility filter and search bounds change.
  const placement::PlacementPlan& ReplanDegraded(const cluster::ClusterSpec& degraded_cluster,
                                                 double traffic_rate);

  // Serves a trace on a fresh engine-level runtime built from the plan.
  metrics::Collector Serve(const workload::Trace& trace);

  // Convenience: generate a trace from the configured dataset at `rate` and serve it.
  metrics::Collector ServeGenerated(double rate, int num_requests, uint64_t seed);

  const DistServeOptions& options() const { return options_; }

  // The placement mode actually resolved (meaningful after Plan() with kAuto).
  bool used_high_affinity() const { return used_high_affinity_; }

 private:
  bool ResolveHighAffinity() const;

  DistServeOptions options_;
  std::optional<placement::PlannerResult> planner_result_;
  bool used_high_affinity_ = false;
  // Search caches shared by every planner invocation this facade makes (initial + replans).
  workload::TraceCache trace_cache_;
  placement::GoodputCache goodput_cache_;
  // Calibration fingerprint guarding the persisted cache file (0 until computed; only
  // meaningful when options_.goodput_cache_path is set).
  uint64_t goodput_cache_hash_ = 0;
  // goodput_cache_.mutations() when the file last matched the cache (after the constructor's
  // load, then after each successful save); a plan that leaves it unmoved skips the save.
  int64_t persisted_mutations_ = 0;
};

}  // namespace distserve

#endif  // DISTSERVE_CORE_DISTSERVE_H_

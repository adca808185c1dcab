// Heterogeneous-fleet placement: Algorithm 2 generalised over (prefill-pool, decode-pool)
// assignments, with SLO-aware MinGpus/MinCost objectives (DESIGN.md §16).
//
// The paper's planners assume a uniform fleet. Disaggregation's own premise — prefill is
// compute-bound, decode is bandwidth-bound — implies each phase should land on the SKU it is
// matched to, so this search enumerates every ordered pool pair of a cluster::HeteroClusterSpec:
//
//   * p == d ("colocated"): the pair is planned inside one pool with the Algorithm-2
//     instance-segment enumeration — corresponding pipeline stages share a node, KV transfers
//     ride NVLink. A single-pool fleet therefore reduces exactly to LowNodeAffinityPlacement.
//   * p != d ("cross-pool"): prefill instances are searched in pool p and decode instances in
//     pool d independently, Algorithm-1 style, and each phase replicates to the traffic rate
//     in its own pool. KV transfers ride the cross-node NIC; as with Algorithm 1, the planner
//     does not charge the transfer against goodput — the serving simulation downstream does.
//
// Every per-pool search reuses the homogeneous machinery verbatim (placement/search_context.h):
// the same phase fold (FoldPhase) and pair fold (FoldPairs) the homogeneous planners run,
// with `inputs.cluster` pointed at HeteroClusterSpec::PoolCluster(pool), so each pool is
// priced with its own Appendix-A coefficients, its own analytic tier-1 caps, and its own
// roofline prune — and pool identity keys the goodput cache for free, because the GPU spec is
// already part of every cache key. Each pool's phase simulations live in one memo shared by
// that pool's folds and speculated on the caller's thread pool (inputs.pool, or one built
// from inputs.num_threads).
//
// Objectives (PlannerInputs::objective):
//   MaxGoodput — rank pairs by per-GPU system goodput (the paper's metric).
//   MinGpus    — rank feasible pairs (serve traffic_rate at the attainment target, within
//                pool capacity) by total GPU count; ties by $/hr, then goodput.
//   MinCost    — rank feasible pairs by $/hr; ties by GPU count, then goodput.
//
// Determinism contract (enforced by hetero_placement_test and the CI determinism job): the
// chosen assignment and every reported candidate are bit-identical with the analytic tier on
// or off, with the goodput cache cold or warm, and at any thread count. Config-level skips use
// bounds the simulated results are clamped to (sound, tier-dependent); pair-level cost skips
// use the roofline bound only (tier-independent), so the evaluated-candidate list never
// varies.
#ifndef DISTSERVE_PLACEMENT_HETERO_H_
#define DISTSERVE_PLACEMENT_HETERO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "placement/algorithms.h"

namespace distserve::placement {

// One evaluated (prefill-pool, decode-pool) assignment.
struct PoolAssignment {
  int prefill_pool = -1;  // indices into the fleet's pool vector
  int decode_pool = -1;
  std::string prefill_pool_name;
  std::string decode_pool_name;

  // True for p == d pairs planned with the Algorithm-2 instance-segment colocation.
  bool colocated = false;

  // Parallelism + replica counts; replicas are sized to the traffic rate per phase.
  PlacementPlan plan;

  // min(prefill replicas x goodput, decode replicas x goodput): what the replicated
  // deployment sustains at the attainment target.
  double system_goodput = 0.0;

  // Σ phase GPUs x the phase's pool price.
  double cost_per_hour = 0.0;

  // Serves traffic_rate at the attainment target AND fits each phase in its pool.
  bool feasible = false;

  int total_gpus() const { return plan.total_gpus(); }
};

struct HeteroPlannerResult {
  PlannerObjective objective = PlannerObjective::kMaxGoodput;
  PoolAssignment chosen;

  // Every pair that was not cost-pruned, in (prefill-pool major) enumeration order. The
  // pair-level prune is roofline-based, so this list is identical tier-on/off and
  // cache-cold/warm.
  std::vector<PoolAssignment> candidates;

  int pairs_considered = 0;
  int pairs_cost_pruned = 0;  // skipped: roofline cost/GPU lower bound beat by the incumbent

  // Search-cost accounting, aggregated over the per-pool folds. A phase config needed by
  // several pairs is counted once: configs_evaluated counts unique (pool, phase, par)
  // triples enumerated, simulations_run counts unique triples actually simulated (of which
  // cache_hits came from the goodput cache), and
  //   simulations_skipped == configs_evaluated - simulations_run
  // are the triples every fold that saw them pruned. configs_pruned_roofline /
  // configs_pruned_tier count fold-level skip *events* (a triple several folds skipped
  // counts several events), attributing which bound produced each skip.
  int configs_evaluated = 0;
  int simulations_run = 0;
  int simulations_skipped = 0;
  int cache_hits = 0;
  int configs_pruned_roofline = 0;
  int configs_pruned_tier = 0;
  int64_t probes = 0;
  int64_t trace_cache_hits = 0;
};

// Plans `fleet` for inputs.objective. inputs.cluster is ignored (each pool substitutes its
// own view); everything else — model, SLOs, dataset, traffic rate, search fidelity, caches,
// tier knobs — applies to every per-pool search unchanged. When no pair is feasible for
// MinGpus/MinCost the result is reported with feasible == false and the plan degrades to the
// smallest constructible instance configuration per phase (capacity pruning has already
// excluded every serving config, so no goodput is attached); a caller that needs the
// strongest infeasible deployment should re-run under MaxGoodput, which ignores capacity.
HeteroPlannerResult HeterogeneousPlacement(const PlannerInputs& inputs,
                                           const cluster::HeteroClusterSpec& fleet);

}  // namespace distserve::placement

#endif  // DISTSERVE_PLACEMENT_HETERO_H_

#include "placement/algorithms.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "placement/search_context.h"

namespace distserve::placement {

// The search internals (SearchContext, the phase-simulation memo and the two folds) live in
// placement/search_context.h so the heterogeneous pool-pair search shares them.
using detail::FoldResult;
using detail::PhaseMemo;
using detail::ReplicaCount;
using detail::SearchContext;
using detail::SmallestFeasible;

namespace {

void AddSearchCost(const PhaseMemo& memo, PlannerResult* result) {
  result->configs_evaluated = static_cast<int>(memo.size());
  result->simulations_run = memo.cost().simulations_run;
  result->cache_hits = memo.cost().cache_hits;
  result->probes = memo.cost().probes;
  result->trace_cache_hits = memo.cost().trace_cache_hits;
}

}  // namespace

PlannerResult HighNodeAffinityPlacement(const PlannerInputs& inputs) {
  PlannerResult result;
  const int num_nodes =
      inputs.max_nodes_per_instance > 0 ? inputs.max_nodes_per_instance : inputs.cluster.num_nodes;
  SearchContext ctx(inputs);
  PhaseMemo memo(ctx, detail::PhaseConfigs(inputs, num_nodes));
  // Algorithm 1 ranks per-GPU goodput whatever inputs.objective says.
  FoldResult prefill = detail::FoldPhase(memo, /*is_prefill=*/true, {});
  FoldResult decode = detail::FoldPhase(memo, /*is_prefill=*/false, {});
  AddSearchCost(memo, &result);
  result.roofline_pruned = prefill.pruned_roofline + decode.pruned_roofline;
  result.analytic_rejected = prefill.pruned_tier + decode.pruned_tier;
  result.simulations_skipped = result.roofline_pruned + result.analytic_rejected;
  result.prefill_candidates = std::move(prefill.kept);
  result.decode_candidates = std::move(decode.kept);

  PlacementPlan plan;
  plan.prefill_par = prefill.found ? prefill.best.par : SmallestFeasible(inputs, num_nodes);
  plan.decode_par = decode.found ? decode.best.par : SmallestFeasible(inputs, num_nodes);
  plan.prefill_goodput = prefill.best.goodput;
  plan.decode_goodput = decode.best.goodput;
  plan.num_prefill = ReplicaCount(inputs.traffic_rate, prefill.best.goodput);
  plan.num_decode = ReplicaCount(inputs.traffic_rate, decode.best.goodput);
  plan.intra_node_transfers = false;
  result.plan = plan;
  return result;
}

PlannerResult LowNodeAffinityPlacement(const PlannerInputs& inputs) {
  PlannerResult result;
  const int num_nodes =
      inputs.max_nodes_per_instance > 0 ? inputs.max_nodes_per_instance : inputs.cluster.num_nodes;
  const int gpus_per_node = inputs.cluster.gpus_per_node;
  const int max_inter = std::min(num_nodes, inputs.model.num_layers);
  SearchContext ctx(inputs);

  // Phase goodputs depend only on (tp, inter), not on the pairing, so every feasible phase
  // config an instance segment can use is one memo key and the pair fold forces exactly the
  // ones it needs.
  std::vector<model::ParallelismConfig> configs;
  for (int inter = 1; inter <= max_inter; ++inter) {
    for (int tp = 1; tp < gpus_per_node; ++tp) {
      if (detail::ConfigFeasible(inputs, {tp, inter})) {
        configs.push_back({tp, inter});
      }
    }
  }
  PhaseMemo memo(ctx, std::move(configs));
  // An "instance segment" pair occupies tp_p + tp_d GPUs on each of `inter` nodes. Nodes may
  // host multiple independent pairs when tp_p + tp_d divides into M, so optimizing per-GPU
  // goodput of one pair is sufficient.
  const std::vector<detail::SegmentPair> pairs = detail::SegmentPairs(memo, max_inter);
  FoldResult fold = detail::FoldPairs(memo, pairs, {});
  AddSearchCost(memo, &result);
  // Feasible phase configs that no surviving pair needed were never simulated. (Pair-level
  // attribution of *why* pairs were pruned is in pairs_pruned_*; a phase config can back
  // many pairs, so per-config reasons are not well defined here.)
  result.simulations_skipped = result.configs_evaluated - result.simulations_run;
  result.pair_unneeded = result.simulations_skipped;
  result.pairs_considered = static_cast<int>(pairs.size());
  result.pairs_pruned_roofline = fold.pruned_roofline;
  result.pairs_pruned_analytic = fold.pruned_tier;
  result.pair_candidates = std::move(fold.kept);

  PlacementPlan plan;
  if (fold.found) {
    const int replicas = ReplicaCount(inputs.traffic_rate, fold.best.goodput);
    plan.prefill_par = model::ParallelismConfig{fold.best.pair_prefill_tp, fold.best.par.pp};
    plan.decode_par = model::ParallelismConfig{fold.best.pair_decode_tp, fold.best.par.pp};
    plan.num_prefill = replicas;
    plan.num_decode = replicas;
    plan.prefill_goodput = fold.best.goodput;
    plan.decode_goodput = fold.best.goodput;
  } else {
    // Nothing met the target; fall back to the smallest feasible pair so the plan remains
    // constructible (callers can still observe goodput 0).
    const model::ParallelismConfig fallback = SmallestFeasible(inputs, num_nodes);
    plan.prefill_par = fallback;
    plan.decode_par = fallback;
  }
  plan.intra_node_transfers = true;
  result.plan = plan;
  return result;
}

}  // namespace distserve::placement

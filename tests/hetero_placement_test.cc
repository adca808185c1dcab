// Heterogeneous-fleet placement search (placement/hetero.h, DESIGN.md §16).
//
// The determinism contract mirrors the homogeneous planners': the chosen assignment and
// every reported candidate are bit-identical to the full (unpruned) walk's and with the
// goodput cache cold or warm, and a single-pool fleet reduces exactly to
// LowNodeAffinityPlacement. On top of that, the SLO-aware objectives must order sanely
// (MinGpus never uses more GPUs than MaxGoodput's replicated plan; mixed MinCost never costs
// more than any feasible uniform fleet) and a degraded fleet must replan onto survivors.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "common/thread_pool.h"
#include "placement/algorithms.h"
#include "placement/goodput_cache.h"
#include "placement/hetero.h"
#include "workload/dataset.h"

namespace distserve::placement {
namespace {

PlannerInputs Inputs(PlannerObjective objective = PlannerObjective::kMaxGoodput) {
  static const auto dataset = workload::MakeShareGptLike();
  PlannerInputs inputs;
  inputs.model = model::ModelSpec::Opt13B();
  inputs.cluster = cluster::ClusterSpec::PaperTestbed();
  inputs.dataset = dataset.get();
  inputs.slo = {0.2, 0.1};
  inputs.traffic_rate = 40.0;
  inputs.objective = objective;
  // Fidelity reduced for test runtime (same knobs as the fig12 timing harness).
  inputs.search.num_requests = 100;
  inputs.search.min_trace_duration = 10.0;
  inputs.search.max_requests = 600;
  inputs.search.bisection_iters = 4;
  return inputs;
}

void ExpectSameAssignment(const PoolAssignment& a, const PoolAssignment& b) {
  EXPECT_EQ(a.prefill_pool, b.prefill_pool);
  EXPECT_EQ(a.decode_pool, b.decode_pool);
  EXPECT_EQ(a.colocated, b.colocated);
  EXPECT_EQ(a.plan.prefill_par.tp, b.plan.prefill_par.tp);
  EXPECT_EQ(a.plan.prefill_par.pp, b.plan.prefill_par.pp);
  EXPECT_EQ(a.plan.decode_par.tp, b.plan.decode_par.tp);
  EXPECT_EQ(a.plan.decode_par.pp, b.plan.decode_par.pp);
  EXPECT_EQ(a.plan.num_prefill, b.plan.num_prefill);
  EXPECT_EQ(a.plan.num_decode, b.plan.num_decode);
  EXPECT_EQ(a.system_goodput, b.system_goodput);  // bitwise
  EXPECT_EQ(a.cost_per_hour, b.cost_per_hour);
  EXPECT_EQ(a.feasible, b.feasible);
}

TEST(HeteroPlacementTest, SinglePoolFleetMatchesLowNodeAffinity) {
  const PlannerInputs inputs = Inputs();
  const PlannerResult homogeneous = LowNodeAffinityPlacement(inputs);
  const HeteroPlannerResult hetero = HeterogeneousPlacement(
      inputs, cluster::HeteroClusterSpec::Uniform(inputs.cluster));

  ASSERT_EQ(hetero.candidates.size(), 1u);
  EXPECT_TRUE(hetero.chosen.colocated);
  const PlacementPlan& a = hetero.chosen.plan;
  const PlacementPlan& b = homogeneous.plan;
  EXPECT_EQ(a.prefill_par.tp, b.prefill_par.tp);
  EXPECT_EQ(a.prefill_par.pp, b.prefill_par.pp);
  EXPECT_EQ(a.decode_par.tp, b.decode_par.tp);
  EXPECT_EQ(a.decode_par.pp, b.decode_par.pp);
  EXPECT_EQ(a.num_prefill, b.num_prefill);
  EXPECT_EQ(a.num_decode, b.num_decode);
  EXPECT_EQ(a.prefill_goodput, b.prefill_goodput);  // bitwise
  EXPECT_EQ(a.decode_goodput, b.decode_goodput);
  EXPECT_TRUE(a.intra_node_transfers);
  // The same pair fold over the same memo keys: the same simulations, probe for probe.
  EXPECT_EQ(hetero.simulations_run, homogeneous.simulations_run);
  EXPECT_EQ(hetero.probes, homogeneous.probes);
}

// The pool-pair search speculates on the caller's thread pool while every prune, keep and
// select happens on the calling thread in enumeration order, so everything but the probe-
// trace cache's hit count (concurrent misses may both generate) is thread-count independent.
TEST(HeteroPlacementTest, BitIdenticalAcrossThreadCounts) {
  const cluster::HeteroClusterSpec fleet = cluster::HeteroClusterSpec::MixedFleet();
  ThreadPool external(3);
  for (PlannerObjective objective :
       {PlannerObjective::kMaxGoodput, PlannerObjective::kMinGpus,
        PlannerObjective::kMinCost}) {
    const HeteroPlannerResult serial = HeterogeneousPlacement(Inputs(objective), fleet);
    std::vector<HeteroPlannerResult> runs;
    for (int threads : {2, 4}) {
      PlannerInputs inputs = Inputs(objective);
      inputs.num_threads = threads;
      runs.push_back(HeterogeneousPlacement(inputs, fleet));
    }
    PlannerInputs pooled = Inputs(objective);
    pooled.pool = &external;
    runs.push_back(HeterogeneousPlacement(pooled, fleet));

    for (const HeteroPlannerResult& r : runs) {
      ExpectSameAssignment(serial.chosen, r.chosen);
      ASSERT_EQ(serial.candidates.size(), r.candidates.size());
      for (size_t i = 0; i < serial.candidates.size(); ++i) {
        ExpectSameAssignment(serial.candidates[i], r.candidates[i]);
      }
      EXPECT_EQ(serial.pairs_considered, r.pairs_considered);
      EXPECT_EQ(serial.pairs_cost_pruned, r.pairs_cost_pruned);
      EXPECT_EQ(serial.configs_evaluated, r.configs_evaluated);
      EXPECT_EQ(serial.simulations_run, r.simulations_run);
      EXPECT_EQ(serial.simulations_skipped, r.simulations_skipped);
      EXPECT_EQ(serial.cache_hits, r.cache_hits);
      EXPECT_EQ(serial.configs_pruned_roofline, r.configs_pruned_roofline);
      EXPECT_EQ(serial.configs_pruned_tier, r.configs_pruned_tier);
      EXPECT_EQ(serial.probes, r.probes);
    }
  }
}

// The full walk (prune_search_space = false) evaluates every pool pair and simulates every
// config; the pruned search may skip pairs and configs but never change what it reports.
TEST(HeteroPlacementTest, PrunedSearchMatchesFullWalkAcrossObjectives) {
  const cluster::HeteroClusterSpec fleet = cluster::HeteroClusterSpec::MixedFleet();
  for (PlannerObjective objective :
       {PlannerObjective::kMaxGoodput, PlannerObjective::kMinGpus,
        PlannerObjective::kMinCost}) {
    PlannerInputs inputs = Inputs(objective);
    const HeteroPlannerResult pruned = HeterogeneousPlacement(inputs, fleet);
    inputs.prune_search_space = false;
    const HeteroPlannerResult full = HeterogeneousPlacement(inputs, fleet);

    ExpectSameAssignment(pruned.chosen, full.chosen);
    EXPECT_EQ(full.pairs_cost_pruned, 0);
    ASSERT_EQ(full.candidates.size(), static_cast<size_t>(full.pairs_considered));
    for (const PoolAssignment& c : pruned.candidates) {
      const auto it = std::find_if(
          full.candidates.begin(), full.candidates.end(), [&](const PoolAssignment& f) {
            return f.prefill_pool == c.prefill_pool && f.decode_pool == c.decode_pool;
          });
      ASSERT_NE(it, full.candidates.end());
      ExpectSameAssignment(c, *it);
    }
    EXPECT_LE(pruned.simulations_run, full.simulations_run);
    EXPECT_EQ(full.simulations_skipped, 0);
    EXPECT_EQ(full.configs_pruned_roofline + full.configs_pruned_tier, 0);
  }
}

TEST(HeteroPlacementTest, CacheColdWarmBitIdentical) {
  PlannerInputs inputs = Inputs(PlannerObjective::kMinCost);
  GoodputCache cache;
  inputs.goodput_cache = &cache;
  const cluster::HeteroClusterSpec fleet = cluster::HeteroClusterSpec::MixedFleet();
  const HeteroPlannerResult cold = HeterogeneousPlacement(inputs, fleet);
  const HeteroPlannerResult warm = HeterogeneousPlacement(inputs, fleet);

  EXPECT_EQ(cold.cache_hits, 0);
  EXPECT_GT(warm.cache_hits, 0);
  EXPECT_EQ(warm.cache_hits, warm.simulations_run);  // everything answered from cache
  ExpectSameAssignment(cold.chosen, warm.chosen);
  ASSERT_EQ(cold.candidates.size(), warm.candidates.size());
  for (size_t i = 0; i < cold.candidates.size(); ++i) {
    ExpectSameAssignment(cold.candidates[i], warm.candidates[i]);
  }
}

TEST(HeteroPlacementTest, ObjectivesOrderSanely) {
  const cluster::HeteroClusterSpec fleet = cluster::HeteroClusterSpec::MixedFleet();
  const HeteroPlannerResult max_goodput =
      HeterogeneousPlacement(Inputs(PlannerObjective::kMaxGoodput), fleet);
  const HeteroPlannerResult min_gpus =
      HeterogeneousPlacement(Inputs(PlannerObjective::kMinGpus), fleet);
  const HeteroPlannerResult min_cost =
      HeterogeneousPlacement(Inputs(PlannerObjective::kMinCost), fleet);

  ASSERT_TRUE(min_gpus.chosen.feasible);
  ASSERT_TRUE(min_cost.chosen.feasible);
  // Feasible means the replicated deployment serves the offered rate within capacity.
  EXPECT_GE(min_gpus.chosen.system_goodput, Inputs().traffic_rate);
  if (max_goodput.chosen.feasible) {
    EXPECT_LE(min_gpus.chosen.total_gpus(), max_goodput.chosen.total_gpus());
  }
  EXPECT_LE(min_cost.chosen.cost_per_hour, min_gpus.chosen.cost_per_hour);
  EXPECT_LE(min_gpus.chosen.total_gpus(), min_cost.chosen.total_gpus());
}

TEST(HeteroPlacementTest, MinCostNeverBeatenByUniformFleet) {
  const PlannerInputs inputs = Inputs(PlannerObjective::kMinCost);
  const cluster::HeteroClusterSpec fleet = cluster::HeteroClusterSpec::MixedFleet();
  const HeteroPlannerResult mixed = HeterogeneousPlacement(inputs, fleet);
  ASSERT_TRUE(mixed.chosen.feasible);
  for (size_t i = 0; i < fleet.pools.size(); ++i) {
    cluster::HeteroClusterSpec uniform = fleet;
    uniform.pools = {fleet.pools[i]};
    const HeteroPlannerResult r = HeterogeneousPlacement(inputs, uniform);
    if (r.chosen.feasible) {
      EXPECT_LE(mixed.chosen.cost_per_hour, r.chosen.cost_per_hour)
          << "uniform " << fleet.pools[i].name << " beat the mixed search";
    }
  }
}

TEST(HeteroPlacementTest, AccountingInvariants) {
  const cluster::HeteroClusterSpec fleet = cluster::HeteroClusterSpec::MixedFleet();
  const HeteroPlannerResult r =
      HeterogeneousPlacement(Inputs(PlannerObjective::kMinCost), fleet);
  const int n = static_cast<int>(fleet.pools.size());
  EXPECT_EQ(r.pairs_considered, n * n);
  EXPECT_EQ(static_cast<int>(r.candidates.size()), r.pairs_considered - r.pairs_cost_pruned);
  EXPECT_EQ(r.simulations_skipped, r.configs_evaluated - r.simulations_run);
  EXPECT_GE(r.simulations_run, r.cache_hits);
  EXPECT_GT(r.configs_evaluated, 0);
}

TEST(HeteroPlacementTest, DegradedFleetReplansOntoSurvivors) {
  const PlannerInputs inputs = Inputs(PlannerObjective::kMinCost);
  const cluster::HeteroClusterSpec fleet = cluster::HeteroClusterSpec::MixedFleet();
  // The whole h100 pool dies (the shape HeteroGpuAllocator::FailedPerPool produces).
  const cluster::HeteroClusterSpec degraded = fleet.Degraded({16, 0, 0});
  const HeteroPlannerResult r = HeterogeneousPlacement(inputs, degraded);
  EXPECT_NE(r.chosen.prefill_pool_name, "h100");
  EXPECT_NE(r.chosen.decode_pool_name, "h100");
  EXPECT_GT(r.chosen.system_goodput, 0.0);
}

TEST(HeteroPlacementTest, InfeasibleTargetFallsBackToBestGoodput) {
  PlannerInputs inputs = Inputs(PlannerObjective::kMinGpus);
  inputs.traffic_rate = 1e9;  // no fleet serves this
  const cluster::HeteroClusterSpec fleet = cluster::HeteroClusterSpec::MixedFleet();
  const HeteroPlannerResult r = HeterogeneousPlacement(inputs, fleet);
  EXPECT_FALSE(r.chosen.feasible);
  // The fallback is still a constructible assignment (smallest feasible instance configs);
  // capacity pruning excluded every serving config, so no goodput is attached to it.
  EXPECT_GT(r.chosen.plan.total_gpus(), 0);
  EXPECT_EQ(static_cast<int>(r.candidates.size()), r.pairs_considered);
}

}  // namespace
}  // namespace distserve::placement

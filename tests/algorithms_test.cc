#include "placement/algorithms.h"

#include <gtest/gtest.h>

#include <memory>

#include "placement/search_context.h"

namespace distserve::placement {
namespace {

PlannerInputs FastInputs(const workload::Dataset* dataset,
                         model::ModelSpec spec = model::ModelSpec::Opt13B()) {
  PlannerInputs inputs;
  inputs.model = std::move(spec);
  inputs.cluster = cluster::ClusterSpec::PaperTestbed();
  inputs.dataset = dataset;
  inputs.slo = {0.2, 0.1};
  inputs.traffic_rate = 10.0;
  inputs.max_nodes_per_instance = 2;
  // Cheap search for unit tests: short traces, few bisection steps.
  inputs.search.num_requests = 150;
  inputs.search.min_trace_duration = 20.0;
  inputs.search.max_requests = 1500;
  inputs.search.bisection_iters = 5;
  return inputs;
}

TEST(PlacementPlanTest, GoodputArithmetic) {
  PlacementPlan plan;
  plan.prefill_par = {2, 1};
  plan.num_prefill = 3;
  plan.decode_par = {1, 2};
  plan.num_decode = 2;
  plan.prefill_goodput = 4.0;
  plan.decode_goodput = 5.0;
  EXPECT_EQ(plan.total_gpus(), 10);
  EXPECT_DOUBLE_EQ(plan.system_goodput(), 10.0);  // min(12, 10)
  EXPECT_DOUBLE_EQ(plan.per_gpu_goodput(), 1.0);
  EXPECT_NE(plan.ToString().find("tp=2"), std::string::npos);
}

TEST(AlgorithmsTest, PhaseGoodputsArePositiveAndOrdered) {
  const auto dataset = workload::MakeShareGptLike();
  const PlannerInputs inputs = FastInputs(dataset.get());
  // No goodput cache: every call simulates.
  const detail::SearchContext ctx(inputs);
  const double prefill_1 = ctx.SimulatePhase({1, 1}, /*is_prefill=*/true).goodput;
  const double prefill_2 = ctx.SimulatePhase({2, 1}, /*is_prefill=*/true).goodput;
  EXPECT_GT(prefill_1, 0.0);
  // More compute per instance -> more sustainable rate (whole-instance goodput).
  EXPECT_GT(prefill_2, prefill_1);
  const double decode_1 = ctx.SimulatePhase({1, 1}, /*is_prefill=*/false).goodput;
  EXPECT_GT(decode_1, 0.0);
  // §2.3: a decode instance handles a much higher rate than a prefill instance.
  EXPECT_GT(decode_1, prefill_1);
}

TEST(AlgorithmsTest, HighAffinityProducesFeasiblePlan) {
  const auto dataset = workload::MakeShareGptLike();
  const PlannerInputs inputs = FastInputs(dataset.get());
  const PlannerResult result = HighNodeAffinityPlacement(inputs);
  const PlacementPlan& plan = result.plan;
  EXPECT_GE(plan.num_prefill, 1);
  EXPECT_GE(plan.num_decode, 1);
  EXPECT_FALSE(plan.intra_node_transfers);
  EXPECT_GT(plan.prefill_goodput, 0.0);
  EXPECT_GT(plan.decode_goodput, 0.0);
  // Replication meets the target traffic rate.
  EXPECT_GE(plan.prefill_goodput * plan.num_prefill, inputs.traffic_rate * 0.999);
  EXPECT_GE(plan.decode_goodput * plan.num_decode, inputs.traffic_rate * 0.999);
  EXPECT_GT(result.configs_evaluated, 4);
  // Chosen configs fit in GPU memory.
  EXPECT_TRUE(model::ShardedModelView(inputs.model, plan.prefill_par)
                  .FitsInMemory(inputs.cluster.gpu));
}

TEST(AlgorithmsTest, LowAffinityColocatesAndFitsNode) {
  const auto dataset = workload::MakeShareGptLike();
  const PlannerInputs inputs = FastInputs(dataset.get());
  const PlannerResult result = LowNodeAffinityPlacement(inputs);
  const PlacementPlan& plan = result.plan;
  EXPECT_TRUE(plan.intra_node_transfers);
  // Segment constraint: prefill + decode TP within one node's 8 GPUs, same pp.
  EXPECT_EQ(plan.prefill_par.pp, plan.decode_par.pp);
  EXPECT_LE(plan.prefill_par.tp + plan.decode_par.tp, inputs.cluster.gpus_per_node);
  EXPECT_EQ(plan.num_prefill, plan.num_decode);
  EXPECT_FALSE(result.pair_candidates.empty());
}

TEST(AlgorithmsTest, Opt66BRequiresSharding) {
  const auto dataset = workload::MakeShareGptLike();
  PlannerInputs inputs = FastInputs(dataset.get(), model::ModelSpec::Opt66B());
  inputs.slo = {0.4, 0.1};
  inputs.search.bisection_iters = 4;
  const PlannerResult result = HighNodeAffinityPlacement(inputs);
  // 132 GB of weights: every chosen config spans >= 2 GPUs.
  EXPECT_GE(result.plan.prefill_par.num_gpus(), 2);
  EXPECT_GE(result.plan.decode_par.num_gpus(), 2);
}

TEST(AlgorithmsTest, TighterSloNeedsMoreGpus) {
  const auto dataset = workload::MakeShareGptLike();
  PlannerInputs loose = FastInputs(dataset.get());
  loose.slo = {1.0, 0.2};
  PlannerInputs tight = FastInputs(dataset.get());
  tight.slo = {0.1, 0.03};
  const PlacementPlan loose_plan = HighNodeAffinityPlacement(loose).plan;
  const PlacementPlan tight_plan = HighNodeAffinityPlacement(tight).plan;
  // Same traffic under a tighter SLO cannot need fewer GPUs.
  EXPECT_GE(tight_plan.total_gpus(), loose_plan.total_gpus());
}

TEST(AlgorithmsTest, HigherTrafficScalesReplicas) {
  const auto dataset = workload::MakeShareGptLike();
  PlannerInputs low = FastInputs(dataset.get());
  low.traffic_rate = 2.0;
  PlannerInputs high = FastInputs(dataset.get());
  high.traffic_rate = 300.0;
  const PlacementPlan low_plan = HighNodeAffinityPlacement(low).plan;
  const PlacementPlan high_plan = HighNodeAffinityPlacement(high).plan;
  EXPECT_EQ(low_plan.prefill_par, high_plan.prefill_par);  // per-GPU optimum is rate-free
  EXPECT_GT(high_plan.num_prefill + high_plan.num_decode,
            low_plan.num_prefill + low_plan.num_decode);
}

}  // namespace
}  // namespace distserve::placement

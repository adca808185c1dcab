#include "core/distserve.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>

namespace distserve {
namespace {

DistServeOptions FastOptions(const workload::Dataset* dataset) {
  DistServeOptions options;
  options.model = model::ModelSpec::Opt13B();
  options.cluster = cluster::ClusterSpec::PaperTestbed();
  options.slo = {0.2, 0.1};
  options.traffic_rate = 4.0;
  options.dataset = dataset;
  options.search.num_requests = 150;
  options.search.min_trace_duration = 20.0;
  options.search.max_requests = 1500;
  options.search.bisection_iters = 5;
  return options;
}

// Forwards to a real dataset and counts every Sample call, from any thread.
class CountingDataset : public workload::Dataset {
 public:
  explicit CountingDataset(std::unique_ptr<workload::Dataset> inner) : inner_(std::move(inner)) {}
  workload::LengthSample Sample(Rng& rng) const override {
    samples_.fetch_add(1, std::memory_order_relaxed);
    return inner_->Sample(rng);
  }
  std::string name() const override { return inner_->name(); }
  std::string identity() const override { return inner_->identity(); }
  int64_t samples() const { return samples_.load(std::memory_order_relaxed); }

 private:
  std::unique_ptr<workload::Dataset> inner_;
  mutable std::atomic<int64_t> samples_{0};
};

TEST(DistServeTest, WarmReplanOnTheSameDatasetDrawsNoSamples) {
  CountingDataset dataset(workload::MakeShareGptLike());
  DistServeOptions options = FastOptions(&dataset);
  options.planner_threads = 2;
  DistServe server(options);
  const placement::PlacementPlan cold = server.Plan();
  const int64_t after_plan = dataset.samples();
  EXPECT_GT(after_plan, 0);

  const placement::PlacementPlan warm = server.Replan(&dataset, options.traffic_rate);
  const placement::PlannerResult& details = server.PlannerDetails();
  ASSERT_GT(details.simulations_run, 0);
  ASSERT_EQ(details.cache_hits, details.simulations_run);  // every phase answered from cache
  EXPECT_EQ(warm.ToString(), cold.ToString());
  // Mean lengths are memoized on the dataset and probe traces are never generated, so the
  // warm replan is lookups only.
  EXPECT_EQ(dataset.samples(), after_plan);
}

TEST(DistServeTest, AutoModePicksLowAffinityOnSlowNetwork) {
  const auto dataset = workload::MakeShareGptLike();
  DistServe server(FastOptions(dataset.get()));
  const placement::PlacementPlan& plan = server.Plan();
  // 25 Gbps cross-node: KV transfers must stay intra-node.
  EXPECT_FALSE(server.used_high_affinity());
  EXPECT_TRUE(plan.intra_node_transfers);
}

TEST(DistServeTest, AutoModePicksHighAffinityOnInfiniband) {
  const auto dataset = workload::MakeShareGptLike();
  DistServeOptions options = FastOptions(dataset.get());
  options.cluster = cluster::ClusterSpec::InfinibandCluster();
  DistServe server(options);
  server.Plan();
  EXPECT_TRUE(server.used_high_affinity());
}

TEST(DistServeTest, ExplicitModeOverridesAuto) {
  const auto dataset = workload::MakeShareGptLike();
  DistServeOptions options = FastOptions(dataset.get());
  options.placement_mode = DistServeOptions::PlacementMode::kHighAffinity;
  DistServe server(options);
  server.Plan();
  EXPECT_TRUE(server.used_high_affinity());
}

TEST(DistServeTest, PlanIsCached) {
  const auto dataset = workload::MakeShareGptLike();
  DistServe server(FastOptions(dataset.get()));
  const placement::PlacementPlan& first = server.Plan();
  const placement::PlacementPlan& second = server.Plan();
  EXPECT_EQ(&first, &second);
}

TEST(DistServeTest, PlanOverrideSkipsSearch) {
  placement::PlacementPlan plan;
  plan.prefill_par = {1, 1};
  plan.decode_par = {1, 1};
  plan.num_prefill = 1;
  plan.num_decode = 1;
  plan.intra_node_transfers = true;
  DistServeOptions options;
  options.model = model::ModelSpec::Opt13B();
  options.cluster = cluster::ClusterSpec::PaperTestbed();
  options.slo = {0.2, 0.1};
  options.plan_override = plan;
  DistServe server(options);
  EXPECT_EQ(server.Plan().prefill_par, (model::ParallelismConfig{1, 1}));
  EXPECT_EQ(server.PlannerDetails().configs_evaluated, 0);
}

TEST(DistServeTest, ServeGeneratedEndToEnd) {
  const auto dataset = workload::MakeShareGptLike();
  DistServe server(FastOptions(dataset.get()));
  const metrics::Collector results = server.ServeGenerated(2.0, 200, 77);
  ASSERT_EQ(results.count(), 200u);
  // A plan sized for 4 rps comfortably meets the SLO at 2 rps.
  const metrics::Attainment attainment = results.ComputeAttainment({0.2, 0.1});
  EXPECT_GT(attainment.both, 0.9);
}

TEST(DistServeDeathTest, MissingDatasetAborts) {
  DistServeOptions options;
  options.model = model::ModelSpec::Opt13B();
  options.cluster = cluster::ClusterSpec::PaperTestbed();
  EXPECT_DEATH(DistServe{std::move(options)}, "dataset");
}

}  // namespace
}  // namespace distserve

// Locks in the search-engine contract of DESIGN.md §10: parallel, memoized, and pruned
// searches produce bit-identical results to the plain serial search.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/topology.h"
#include "placement/algorithms.h"
#include "placement/hetero.h"
#include "workload/dataset.h"

namespace distserve::placement {
namespace {

PlannerInputs FastInputs(const workload::Dataset* dataset) {
  PlannerInputs inputs;
  inputs.model = model::ModelSpec::Opt13B();
  inputs.cluster = cluster::ClusterSpec::PaperTestbed();
  inputs.dataset = dataset;
  inputs.slo = {0.2, 0.1};
  inputs.traffic_rate = 10.0;
  inputs.max_nodes_per_instance = 2;
  inputs.search.num_requests = 120;
  inputs.search.min_trace_duration = 15.0;
  inputs.search.max_requests = 1200;
  inputs.search.bisection_iters = 4;
  return inputs;
}

void ExpectCandidatesEqual(const std::vector<CandidateResult>& a,
                           const std::vector<CandidateResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].par, b[i].par);
    EXPECT_EQ(a[i].goodput, b[i].goodput);  // bitwise, not approximate
    EXPECT_EQ(a[i].per_gpu, b[i].per_gpu);
    EXPECT_EQ(a[i].pair_prefill_tp, b[i].pair_prefill_tp);
    EXPECT_EQ(a[i].pair_decode_tp, b[i].pair_decode_tp);
  }
}

void ExpectResultsIdentical(const PlannerResult& a, const PlannerResult& b) {
  EXPECT_EQ(a.plan.prefill_par, b.plan.prefill_par);
  EXPECT_EQ(a.plan.decode_par, b.plan.decode_par);
  EXPECT_EQ(a.plan.num_prefill, b.plan.num_prefill);
  EXPECT_EQ(a.plan.num_decode, b.plan.num_decode);
  EXPECT_EQ(a.plan.prefill_goodput, b.plan.prefill_goodput);  // bitwise
  EXPECT_EQ(a.plan.decode_goodput, b.plan.decode_goodput);
  EXPECT_EQ(a.plan.intra_node_transfers, b.plan.intra_node_transfers);
  ExpectCandidatesEqual(a.prefill_candidates, b.prefill_candidates);
  ExpectCandidatesEqual(a.decode_candidates, b.decode_candidates);
  ExpectCandidatesEqual(a.pair_candidates, b.pair_candidates);
  EXPECT_EQ(a.configs_evaluated, b.configs_evaluated);
  EXPECT_EQ(a.simulations_run, b.simulations_run);
  EXPECT_EQ(a.simulations_skipped, b.simulations_skipped);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
}

TEST(PlannerParallelTest, HighAffinityBitIdenticalAcrossThreadCounts) {
  const auto dataset = workload::MakeShareGptLike();
  PlannerInputs inputs = FastInputs(dataset.get());
  inputs.num_threads = 1;
  const PlannerResult serial = HighNodeAffinityPlacement(inputs);
  for (int threads : {2, 8}) {
    inputs.num_threads = threads;
    ExpectResultsIdentical(serial, HighNodeAffinityPlacement(inputs));
  }
}

TEST(PlannerParallelTest, LowAffinityBitIdenticalAcrossThreadCounts) {
  const auto dataset = workload::MakeShareGptLike();
  PlannerInputs inputs = FastInputs(dataset.get());
  inputs.num_threads = 1;
  const PlannerResult serial = LowNodeAffinityPlacement(inputs);
  for (int threads : {2, 8}) {
    inputs.num_threads = threads;
    ExpectResultsIdentical(serial, LowNodeAffinityPlacement(inputs));
  }
}

TEST(PlannerParallelTest, ExternalPoolMatchesOwnedPool) {
  const auto dataset = workload::MakeShareGptLike();
  PlannerInputs inputs = FastInputs(dataset.get());
  const PlannerResult baseline = HighNodeAffinityPlacement(inputs);
  ThreadPool pool(3);
  inputs.pool = &pool;
  ExpectResultsIdentical(baseline, HighNodeAffinityPlacement(inputs));
}

TEST(PlannerParallelTest, PruningDoesNotChangeThePlan) {
  const auto dataset = workload::MakeShareGptLike();
  PlannerInputs pruned = FastInputs(dataset.get());
  PlannerInputs full = FastInputs(dataset.get());
  full.prune_search_space = false;
  for (const bool high : {true, false}) {
    const PlannerResult a =
        high ? HighNodeAffinityPlacement(pruned) : LowNodeAffinityPlacement(pruned);
    const PlannerResult b = high ? HighNodeAffinityPlacement(full) : LowNodeAffinityPlacement(full);
    EXPECT_EQ(a.plan.prefill_par, b.plan.prefill_par);
    EXPECT_EQ(a.plan.decode_par, b.plan.decode_par);
    EXPECT_EQ(a.plan.num_prefill, b.plan.num_prefill);
    EXPECT_EQ(a.plan.num_decode, b.plan.num_decode);
    EXPECT_EQ(a.plan.prefill_goodput, b.plan.prefill_goodput);
    EXPECT_EQ(a.plan.decode_goodput, b.plan.decode_goodput);
    // And pruning must actually prune something at this budget, while the full search
    // simulates everything.
    EXPECT_GT(a.simulations_skipped, 0) << (high ? "alg1" : "alg2");
    EXPECT_EQ(b.simulations_skipped, 0) << (high ? "alg1" : "alg2");
  }
}

// Cache writes happen on the fold thread, so speculated configs a fold skips never reach the
// cache at any thread count. Repeated because a thread-timing leak shows only on some runs.
TEST(PlannerParallelTest, GoodputCacheIndependentOfThreads) {
  const auto dataset = workload::MakeShareGptLike();
  const cluster::HeteroClusterSpec fleet = cluster::HeteroClusterSpec::MixedFleet();
  const std::vector<std::function<void(PlannerInputs)>> searches = {
      [](PlannerInputs in) { HighNodeAffinityPlacement(in); },
      [](PlannerInputs in) { LowNodeAffinityPlacement(in); },
      [&](PlannerInputs in) {
        in.objective = PlannerObjective::kMinCost;
        in.traffic_rate = 40.0;
        HeterogeneousPlacement(in, fleet);
      }};
  for (size_t search = 0; search < searches.size(); ++search) {
    auto fill = [&](int threads) {
      GoodputCache cache;
      PlannerInputs inputs = FastInputs(dataset.get());
      inputs.goodput_cache = &cache;
      inputs.num_threads = threads;
      searches[search](inputs);
      return cache.TakeSnapshot();
    };
    const GoodputCache::Snapshot serial = fill(1);
    ASSERT_FALSE(serial.values.empty());
    for (int round = 0; round < 3; ++round) {
      for (const int threads : {2, 8}) {
        const GoodputCache::Snapshot threaded = fill(threads);
        EXPECT_EQ(threaded.values, serial.values) << "search " << search << " threads=" << threads;
        EXPECT_EQ(threaded.hints, serial.hints) << "search " << search << " threads=" << threads;
      }
    }
  }
}

// The goodput cache's hit and miss counters are counted on the fold thread, once per key a
// fold uses, so a threaded search reports the serial search's counts: a cold search (all
// misses) then a warm one on the same cache (hits), at 1, 2 and 8 threads.
TEST(PlannerParallelTest, GoodputCacheCountersIndependentOfThreads) {
  const auto dataset = workload::MakeShareGptLike();
  const cluster::HeteroClusterSpec fleet = cluster::HeteroClusterSpec::MixedFleet();
  const std::vector<std::function<void(PlannerInputs)>> searches = {
      [](PlannerInputs in) { HighNodeAffinityPlacement(in); },
      [](PlannerInputs in) { LowNodeAffinityPlacement(in); },
      [&](PlannerInputs in) {
        in.objective = PlannerObjective::kMinCost;
        in.traffic_rate = 40.0;
        HeterogeneousPlacement(in, fleet);
      }};
  for (size_t search = 0; search < searches.size(); ++search) {
    auto counts = [&](int threads) {
      GoodputCache cache;
      PlannerInputs inputs = FastInputs(dataset.get());
      inputs.goodput_cache = &cache;
      inputs.num_threads = threads;
      searches[search](inputs);
      searches[search](inputs);
      const GoodputCache::Stats stats = cache.stats();
      return std::make_pair(stats.hits, stats.misses);
    };
    const std::pair<int64_t, int64_t> serial = counts(1);
    ASSERT_GT(serial.first, 0) << "search " << search;
    ASSERT_GT(serial.second, 0) << "search " << search;
    for (const int threads : {2, 8}) {
      EXPECT_EQ(counts(threads), serial) << "search " << search << " threads=" << threads;
    }
  }
}

TEST(PlannerParallelTest, CounterIdentityHolds) {
  const auto dataset = workload::MakeShareGptLike();
  const PlannerInputs inputs = FastInputs(dataset.get());
  for (const bool high : {true, false}) {
    const PlannerResult r =
        high ? HighNodeAffinityPlacement(inputs) : LowNodeAffinityPlacement(inputs);
    EXPECT_EQ(r.configs_evaluated, r.simulations_run + r.simulations_skipped);
    EXPECT_EQ(r.cache_hits, 0);  // no goodput cache attached
    EXPECT_EQ(static_cast<int>(r.prefill_candidates.size() + r.decode_candidates.size() +
                               r.pair_candidates.size()) <= r.simulations_run,
              true);
  }
}

TEST(PlannerParallelTest, GoodputCacheAnswersUnchangedResearch) {
  const auto dataset = workload::MakeShareGptLike();
  GoodputCache cache;
  PlannerInputs inputs = FastInputs(dataset.get());
  inputs.goodput_cache = &cache;
  const PlannerResult cold = HighNodeAffinityPlacement(inputs);
  EXPECT_EQ(cold.cache_hits, 0);
  EXPECT_GT(cold.simulations_run, 0);
  const PlannerResult warm = HighNodeAffinityPlacement(inputs);
  // Unchanged inputs: every simulation the fold needs is a cache hit, and the result is
  // bit-identical to the cold search (cache_hits is the only counter allowed to differ).
  EXPECT_EQ(warm.cache_hits, warm.simulations_run);
  EXPECT_GT(warm.cache_hits, 0);
  EXPECT_EQ(cold.plan.prefill_par, warm.plan.prefill_par);
  EXPECT_EQ(cold.plan.decode_par, warm.plan.decode_par);
  EXPECT_EQ(cold.plan.num_prefill, warm.plan.num_prefill);
  EXPECT_EQ(cold.plan.num_decode, warm.plan.num_decode);
  EXPECT_EQ(cold.plan.prefill_goodput, warm.plan.prefill_goodput);  // bitwise
  EXPECT_EQ(cold.plan.decode_goodput, warm.plan.decode_goodput);
  ExpectCandidatesEqual(cold.prefill_candidates, warm.prefill_candidates);
  ExpectCandidatesEqual(cold.decode_candidates, warm.decode_candidates);
  EXPECT_EQ(cold.simulations_run, warm.simulations_run);
  EXPECT_EQ(cold.simulations_skipped, warm.simulations_skipped);
}

TEST(PlannerParallelTest, GoodputCacheMissesOnChangedWorkload) {
  const auto sharegpt = workload::MakeShareGptLike();
  const auto humaneval = workload::MakeHumanEvalLike();
  GoodputCache cache;
  PlannerInputs inputs = FastInputs(sharegpt.get());
  inputs.goodput_cache = &cache;
  HighNodeAffinityPlacement(inputs);
  inputs.dataset = humaneval.get();
  const PlannerResult shifted = HighNodeAffinityPlacement(inputs);
  // A different workload invalidates every value fingerprint (rate hints may still warm-start
  // the searches, but nothing is answered from cache).
  EXPECT_EQ(shifted.cache_hits, 0);
  EXPECT_GT(shifted.simulations_run, 0);
}

TEST(PlannerParallelTest, CachedSearchMatchesUncachedPlan) {
  const auto dataset = workload::MakeShareGptLike();
  PlannerInputs plain = FastInputs(dataset.get());
  const PlannerResult baseline = LowNodeAffinityPlacement(plain);
  GoodputCache cache;
  workload::TraceCache traces;
  PlannerInputs cached = FastInputs(dataset.get());
  cached.goodput_cache = &cache;
  cached.search.trace_cache = &traces;
  cached.num_threads = 4;
  const PlannerResult first = LowNodeAffinityPlacement(cached);
  const PlannerResult second = LowNodeAffinityPlacement(cached);
  // Caches and threads change cost, never results.
  EXPECT_EQ(baseline.plan.prefill_par, first.plan.prefill_par);
  EXPECT_EQ(baseline.plan.decode_par, first.plan.decode_par);
  EXPECT_EQ(baseline.plan.prefill_goodput, first.plan.prefill_goodput);
  EXPECT_EQ(baseline.plan.decode_goodput, first.plan.decode_goodput);
  EXPECT_EQ(first.plan.prefill_goodput, second.plan.prefill_goodput);
  EXPECT_GT(second.cache_hits, 0);
}

}  // namespace
}  // namespace distserve::placement

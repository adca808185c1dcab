// Guards the request path's allocation budget: a serving run allocates nothing per request.
//
// A counting global operator new (compiled into this test binary only, like
// event_queue_alloc_test.cc) brackets each Run. Every run pays a fixed set-up cost (the
// collector's record vector, the event slab and KV tables growing to their peak), so the test
// runs N and then 2N ShareGPT requests on fresh systems and divides the difference in
// allocations by the N extra requests (DESIGN.md §12 lists what the budget rules out).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "baselines/vllm_system.h"
#include "serving/serving_system.h"
#include "workload/dataset.h"
#include "workload/generator.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

struct AllocationScope {
  AllocationScope() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationScope() { g_counting.store(false, std::memory_order_relaxed); }
  uint64_t count() const { return g_allocations.load(std::memory_order_relaxed); }
};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace distserve {
namespace {

constexpr int kRequests = 3000;
// serve-chatbot's lowest rung: 3.2 requests/s per GPU on four GPUs.
constexpr double kRate = 3.2 * 4;
// Allowed growth per extra request: chunked request storage alone costs 1/1024.
constexpr double kBudget = 0.01;

workload::Trace ShareGptTrace(int n) {
  const auto dataset = workload::MakeDatasetByName("sharegpt");
  workload::TraceSpec spec;
  spec.rate = kRate;
  spec.num_requests = n;
  spec.seed = 7;
  return workload::GenerateTrace(spec, *dataset);
}

// Heap allocations made by one Run of `trace` on a system built by `make_system` (built
// outside the counted window).
template <typename MakeSystem>
uint64_t AllocationsInRun(const MakeSystem& make_system, const workload::Trace& trace) {
  auto system = make_system();
  metrics::Collector records;
  uint64_t count = 0;
  {
    AllocationScope scope;
    records = system->Run(trace);
    count = scope.count();
  }
  EXPECT_EQ(records.count(), trace.size()) << "every request must complete";
  return count;
}

// Allocations per request beyond the first kRequests: (allocs(2N) - allocs(N)) / N, after a
// warm-up run that settles lazily built statics and allocator state.
template <typename MakeSystem>
double ExtraAllocationsPerRequest(const MakeSystem& make_system) {
  const workload::Trace small = ShareGptTrace(kRequests);
  const workload::Trace large = ShareGptTrace(2 * kRequests);
  AllocationsInRun(make_system, small);
  const uint64_t at_n = AllocationsInRun(make_system, small);
  const uint64_t at_2n = AllocationsInRun(make_system, large);
  SCOPED_TRACE(testing::Message() << "allocations: " << at_n << " for " << kRequests
                                  << " requests, " << at_2n << " for " << 2 * kRequests);
  EXPECT_GE(at_2n, at_n);
  return (static_cast<double>(at_2n) - static_cast<double>(at_n)) / kRequests;
}

serving::ServingConfig Disagg2P2D() {
  serving::ServingConfig config;
  config.model = model::ModelSpec::Opt13B();
  config.cluster = cluster::ClusterSpec::PaperTestbed();
  config.plan.prefill_par = {1, 1};
  config.plan.decode_par = {1, 1};
  config.plan.num_prefill = 2;
  config.plan.num_decode = 2;
  config.plan.intra_node_transfers = true;
  return config;
}

baselines::VllmConfig Colocated4(int64_t chunk_budget) {
  baselines::VllmConfig config;
  config.model = model::ModelSpec::Opt13B();
  config.cluster = cluster::ClusterSpec::PaperTestbed();
  config.num_instances = 4;
  if (chunk_budget > 0) {
    config.engine_options.mode = engine::ColocatedInstance::Options::SchedulingMode::kChunked;
    config.engine_options.chunk_budget = chunk_budget;
  }
  return config;
}

TEST(ServingAllocTest, DisaggregatedRunAllocatesNothingPerRequest) {
  const double per_request = ExtraAllocationsPerRequest(
      [] { return std::make_unique<serving::ServingSystem>(Disagg2P2D()); });
  EXPECT_LT(per_request, kBudget);
}

TEST(ServingAllocTest, VllmRunAllocatesNothingPerRequest) {
  const double per_request = ExtraAllocationsPerRequest(
      [] { return std::make_unique<baselines::VllmSystem>(Colocated4(0)); });
  EXPECT_LT(per_request, kBudget);
}

TEST(ServingAllocTest, ChunkedVllmRunAllocatesNothingPerRequest) {
  const double per_request = ExtraAllocationsPerRequest(
      [] { return std::make_unique<baselines::VllmSystem>(Colocated4(512)); });
  EXPECT_LT(per_request, kBudget);
}

}  // namespace
}  // namespace distserve

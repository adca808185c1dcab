// Guards the request path's allocation and memory budgets: a serving run allocates nothing per
// request, and the only bytes it allocates per request are the caller's output record.
//
// A counting global operator new (compiled into this test binary only, like
// event_queue_alloc_test.cc) brackets each Run. Every run pays a fixed set-up cost (the
// collector's record vector, the event slab, the request-state slots and KV tables growing to
// their peak), so the test runs N and then 2N ShareGPT requests on fresh systems and divides
// the difference in allocations, and in bytes, by the N extra requests (DESIGN.md §12 lists
// what the budgets rule out).
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
std::atomic<uint64_t> g_bytes{0};

struct AllocationScope {
  AllocationScope() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_bytes.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationScope() { g_counting.store(false, std::memory_order_relaxed); }
  uint64_t count() const { return g_allocations.load(std::memory_order_relaxed); }
  uint64_t bytes() const { return g_bytes.load(std::memory_order_relaxed); }
};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

// GCC pairs the std::free below with the operator new a caller's delete-expression matched,
// once both are inlined, and warns of a mismatch (-Wmismatched-new-delete). The replacement
// operator new above allocates with std::malloc, so std::free is the matching release.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace distserve {
namespace {

constexpr int kRequests = 3000;
// serve-chatbot's lowest rung: 3.2 requests/s per GPU on four GPUs.
constexpr double kRate = 3.2 * 4;
// Allowed allocations per extra request.
constexpr double kBudget = 0.01;
// Allowed bytes per extra request beyond its output record, which the caller keeps (the
// collector reserves one per request up front). Request state is recycled at each outcome,
// so it costs nothing per request; the slack covers peak-driven growth (event slab, queues,
// KV tables, state slots) that a longer trace may reach. Keeping every request's 192-byte
// state for the whole run would exceed it.
constexpr double kByteSlack = 32.0;

workload::Trace ShareGptTrace(int n) {
  const auto dataset = workload::MakeDatasetByName("sharegpt");
  workload::TraceSpec spec;
  spec.rate = kRate;
  spec.num_requests = n;
  spec.seed = 7;
  return workload::GenerateTrace(spec, *dataset);
}

// Heap allocations and bytes made by one Run of `trace` on a system built by `make_system`
// (built outside the counted window).
struct RunCost {
  uint64_t allocations = 0;
  uint64_t bytes = 0;
};

template <typename MakeSystem>
RunCost CostOfRun(const MakeSystem& make_system, const workload::Trace& trace) {
  auto system = make_system();
  metrics::Collector records;
  RunCost cost;
  {
    AllocationScope scope;
    records = system->Run(trace);
    cost = {scope.count(), scope.bytes()};
  }
  EXPECT_EQ(records.count(), trace.size()) << "every request must complete";
  return cost;
}

// Allocations and bytes per request beyond the first kRequests: (cost(2N) - cost(N)) / N,
// after a warm-up run that settles lazily built statics and allocator state.
struct PerRequest {
  double allocations;
  double bytes;
};

template <typename MakeSystem>
PerRequest ExtraCostPerRequest(const MakeSystem& make_system) {
  const workload::Trace small = ShareGptTrace(kRequests);
  const workload::Trace large = ShareGptTrace(2 * kRequests);
  CostOfRun(make_system, small);
  const RunCost at_n = CostOfRun(make_system, small);
  const RunCost at_2n = CostOfRun(make_system, large);
  SCOPED_TRACE(testing::Message() << "allocations: " << at_n.allocations << " for "
                                  << kRequests << " requests, " << at_2n.allocations << " for "
                                  << 2 * kRequests << "; bytes: " << at_n.bytes << ", "
                                  << at_2n.bytes);
  EXPECT_GE(at_2n.allocations, at_n.allocations);
  EXPECT_GE(at_2n.bytes, at_n.bytes);
  const auto per_extra = [](uint64_t n, uint64_t two_n) {
    return (static_cast<double>(two_n) - static_cast<double>(n)) / kRequests;
  };
  return {per_extra(at_n.allocations, at_2n.allocations), per_extra(at_n.bytes, at_2n.bytes)};
}

void ExpectWithinBudgets(const PerRequest& per_request) {
  EXPECT_LT(per_request.allocations, kBudget);
  EXPECT_LE(per_request.bytes, sizeof(metrics::RequestRecord) + kByteSlack);
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
  ExpectWithinBudgets(ExtraCostPerRequest(
      [] { return std::make_unique<serving::ServingSystem>(Disagg2P2D()); }));
}

TEST(ServingAllocTest, VllmRunAllocatesNothingPerRequest) {
  ExpectWithinBudgets(ExtraCostPerRequest(
      [] { return std::make_unique<baselines::VllmSystem>(Colocated4(0)); }));
}

TEST(ServingAllocTest, ChunkedVllmRunAllocatesNothingPerRequest) {
  ExpectWithinBudgets(ExtraCostPerRequest(
      [] { return std::make_unique<baselines::VllmSystem>(Colocated4(512)); }));
}

}  // namespace
}  // namespace distserve

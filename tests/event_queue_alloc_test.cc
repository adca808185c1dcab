// Proves the event queue's allocation diet: after warm-up, a steady-state schedule→fire
// cycle performs ZERO heap allocations. Node slabs and the heap vector are reused through
// the free list, and callbacks small enough for InlineFunction's inline storage never box.
//
// The proof is a counting global operator new/delete compiled into this test binary only.
// Counting is toggled around the measured loop so gtest's own bookkeeping stays invisible.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "simcore/event_queue.h"
#include "simcore/simulator.h"

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

namespace distserve::simcore {
namespace {

TEST(EventQueueAllocTest, SteadyStateScheduleFireAllocatesNothing) {
  EventQueue queue;
  int fired = 0;
  // Warm-up: grow the node slab and heap storage to their steady-state footprint.
  for (int i = 0; i < 64; ++i) {
    queue.Schedule(static_cast<SimTime>(i), [&fired] { ++fired; });
  }
  while (!queue.empty()) {
    queue.FireNext();
  }
  ASSERT_EQ(fired, 64);

  constexpr int kEvents = 10000;
  AllocationScope scope;
  for (int i = 0; i < kEvents; ++i) {
    queue.Schedule(static_cast<SimTime>(i), [&fired] { ++fired; });
    queue.FireNext();
  }
  EXPECT_EQ(scope.count(), 0u) << "steady-state events must reuse slab nodes";
  EXPECT_EQ(fired, 64 + kEvents);
}

TEST(EventQueueAllocTest, SteadyStateCancelChurnAllocatesNothing) {
  EventQueue queue;
  std::vector<EventHandle> window;
  window.reserve(256);
  // Warm-up with the exact churn shape of the measured loop: dead entries from one round
  // coexist with the next round's pushes until compaction triggers, so the heap's
  // steady-state capacity is larger than a single window.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 256; ++i) {
      window.push_back(queue.Schedule(static_cast<SimTime>(i), [] {}));
    }
    for (EventHandle& h : window) {
      h.Cancel();
    }
    window.clear();
  }

  AllocationScope scope;
  for (int round = 0; round < 64; ++round) {
    for (int i = 0; i < 256; ++i) {
      window.push_back(
          queue.Schedule(static_cast<SimTime>(round * 256 + i), [] {}));
    }
    for (EventHandle& h : window) {
      h.Cancel();  // cancellation releases the node straight back to the free list
    }
    window.clear();
  }
  EXPECT_EQ(scope.count(), 0u) << "cancel churn must not touch the heap allocator";
  EXPECT_TRUE(queue.empty()) << "every scheduled event was cancelled";
}

TEST(EventQueueAllocTest, SteadyStateRescheduleChurnAllocatesNothing) {
  // The engines' run-cut pattern: a run event is scheduled at the end of a long run, cut back
  // to an earlier step boundary (sometimes twice) and fired, while other runs stand in the
  // queue. Re-timing moves the entry in place: no node, no heap entry, no cancellation.
  EventQueue queue;
  std::vector<EventHandle> standing;
  standing.reserve(64);
  for (int i = 0; i < 64; ++i) {
    standing.push_back(queue.Schedule(1e9 + i, [] {}));
  }
  int fired = 0;
  const auto cycle = [&](int i) {
    const SimTime t = static_cast<SimTime>(i);
    EventHandle run = queue.Schedule(t + 8.0, [&fired] { ++fired; });
    queue.Reschedule(run, t + 4.0);
    if (i % 2 == 0) {
      queue.Reschedule(run, t + 1.0);
    }
    queue.Reschedule(standing[static_cast<size_t>(i) % standing.size()], 1e9 + 64 + i);
    queue.FireNext();
  };
  cycle(0);  // warm-up: the slab and heap reach their steady-state footprint

  constexpr int kEvents = 10000;
  AllocationScope scope;
  for (int i = 1; i <= kEvents; ++i) {
    cycle(i);
  }
  EXPECT_EQ(scope.count(), 0u) << "re-timing must not touch the heap allocator";
  EXPECT_EQ(fired, 1 + kEvents);
  EXPECT_EQ(queue.cancelled(), 0u);
  EXPECT_EQ(queue.size(), standing.size()) << "no dead entry left behind";
}

TEST(EventQueueAllocTest, SimulatorRunLoopIsAllocationFreePerEvent) {
  // The full Run() path — Pop, advance time, invoke — through the Simulator facade.
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 64; ++i) {
    sim.ScheduleAfter(1.0, [&fired] { ++fired; });
  }
  sim.Run();
  ASSERT_EQ(fired, 64);

  constexpr int kEvents = 4096;
  int chained = 0;
  AllocationScope scope;
  // A self-rescheduling chain: the canonical engine pattern (step end schedules next step).
  struct Chain {
    Simulator* sim;
    int* count;
    void operator()() const {
      if (++*count < kEvents) {
        sim->ScheduleAfter(0.5, Chain{sim, count});
      }
    }
  };
  sim.ScheduleAfter(0.5, Chain{&sim, &chained});
  sim.Run();
  EXPECT_EQ(scope.count(), 0u) << "self-rescheduling steps must be allocation-free";
  EXPECT_EQ(chained, kEvents);
}

}  // namespace
}  // namespace distserve::simcore

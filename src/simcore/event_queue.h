// A deterministic pending-event set for discrete-event simulation.
//
// Events are (time, sequence) pairs kept in a binary min-heap of POD entries; the
// monotonically increasing sequence number breaks time ties in insertion order, which makes
// simulations bit-reproducible regardless of heap internals. Callbacks live out-of-heap in a
// slab of reusable nodes threaded on a free-list, so the steady-state schedule→fire cycle
// allocates nothing: a fired (or cancelled) node returns to the free-list and its inline
// callback storage is reused by the next event. Handles are (queue, node, generation)
// triples — cancellation is O(1) by bumping the node's generation, and the common
// schedule-then-fire path pays no cancellation machinery beyond one generation compare at
// fire time (no shared_ptr control blocks, no atomics).
//
// A dead-entry counter bounds the garbage lazy deletion can accumulate: when more than half
// of the stored heap entries are cancelled, the heap is compacted in one O(n) sweep —
// without this, cancel-heavy schedulers (speculative timeouts, per-request deadlines that
// almost never fire) grow the heap with entries that sift through every push until they
// surface.
//
// Lifetime rule: an EventHandle must not be *used* (Cancel/pending) after its queue is
// destroyed; destroying a handle is always safe. Every component in this codebase owns its
// handles inside objects that the simulator outlives, so this costs nothing in practice.
#ifndef DISTSERVE_SIMCORE_EVENT_QUEUE_H_
#define DISTSERVE_SIMCORE_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "common/inline_function.h"

namespace distserve::simcore {

using SimTime = double;  // seconds of virtual time

// Event callbacks: move-only, with 64 bytes of inline storage so the engine's step closures
// never touch the heap (std::function's ~16-byte buffer forced one allocation per event).
using EventCallback = InlineFunction<64>;

class EventQueue;

// Handle to a scheduled event; lets the owner cancel it before it fires. Trivially copyable.
class EventHandle {
 public:
  EventHandle() = default;

  // Cancels the event if it has not fired yet. Safe to call multiple times or on a
  // default-constructed handle.
  void Cancel();

  // True when the event is still pending (scheduled, not fired, not cancelled).
  bool pending() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, uint32_t node, uint32_t generation)
      : queue_(queue), node_(node), generation_(generation) {}

  EventQueue* queue_ = nullptr;
  uint32_t node_ = 0;
  uint32_t generation_ = 0;
};

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `fn` at absolute time `when`. Ordering among equal times is insertion order.
  // Takes the callback by rvalue reference so it relocates exactly once, caller straight into
  // the slab node — InlineFunction moves are indirect manage calls, and a by-value chain
  // through ScheduleAt/Schedule/AcquireNode was three of them per event.
  EventHandle Schedule(SimTime when, EventCallback&& fn);

  // Reserves `n` consecutive sequence numbers and returns the first. An event later scheduled
  // under one of them with ScheduleReserved ties against every other event exactly as if it
  // had been scheduled at reservation time: after everything scheduled before the
  // reservation, before everything scheduled after it. This lets a producer feed a long
  // time-ordered stream into the queue one event at a time (Simulator::StreamArrivals)
  // without changing the order of events at equal times.
  uint64_t ReserveSeqs(uint64_t n) {
    const uint64_t base = next_seq_;
    next_seq_ += n;
    return base;
  }

  // Schedules `fn` at `when` under a sequence number returned by ReserveSeqs (each at most
  // once).
  EventHandle ScheduleReserved(SimTime when, uint64_t seq, EventCallback&& fn);

  // True when no live (uncancelled) event remains.
  bool empty() const;

  // Entries currently stored, counting cancelled-but-uncollected ones (upper bound on live).
  size_t size() const { return heap_.size(); }

  // Events cancelled before they fired, over the queue's lifetime.
  uint64_t cancelled() const { return cancelled_; }

  // Time of the earliest live event; +infinity when empty.
  SimTime NextTime() const;

  // Pops and returns the earliest live event. Requires !empty().
  struct Fired {
    SimTime time;
    EventCallback fn;
  };
  Fired Pop();

 private:
  friend class EventHandle;

  static constexpr uint32_t kNilNode = UINT32_MAX;

  // Heap entries are 24-byte PODs: cheap to sift, no callback churn during heap ops. An
  // entry is live iff its generation still matches its node's (firing or cancelling bumps
  // the node's generation, which also invalidates stale handles when the node is reused).
  struct Entry {
    SimTime time;
    uint64_t seq;
    uint32_t node;
    uint32_t generation;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  // Slab node: callback + liveness generation + free-list link.
  struct Node {
    EventCallback fn;
    uint32_t generation = 0;
    uint32_t next_free = kNilNode;
  };

  bool EntryLive(const Entry& e) const { return nodes_[e.node].generation == e.generation; }

  // Handle-side liveness/cancel (see EventHandle).
  bool HandlePending(uint32_t node, uint32_t generation) const {
    return node < nodes_.size() && nodes_[node].generation == generation;
  }
  void CancelNode(uint32_t node, uint32_t generation);

  EventHandle Push(SimTime when, uint64_t seq, EventCallback&& fn);

  uint32_t AcquireNode(EventCallback&& fn);
  void ReleaseNode(uint32_t index);  // bumps generation, frees the callback, links free-list

  // Removes dead entries from the heap top.
  void DropDead() const;

  // Rebuilds the heap without dead entries once they outnumber live ones.
  void MaybeCompact();

  mutable std::vector<Entry> heap_;
  std::vector<Node> nodes_;
  uint32_t free_head_ = kNilNode;
  uint64_t next_seq_ = 0;
  mutable size_t dead_count_ = 0;  // cancelled entries still stored in heap_
  uint64_t cancelled_ = 0;
};

}  // namespace distserve::simcore

#endif  // DISTSERVE_SIMCORE_EVENT_QUEUE_H_

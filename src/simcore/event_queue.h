// A deterministic pending-event set for discrete-event simulation.
//
// Events are keyed by (time, sequence); the monotonically increasing sequence number breaks
// time ties in insertion order, which makes simulations bit-reproducible regardless of heap
// internals. The keys sit in a binary min-heap of 24-byte POD entries, and a dense position
// index (`slots_[node].link`) records where each queued event's entry sits. Hand-written
// hole-based sifts keep that index current, and it is what lets Reschedule move a pending
// event to a new time in place: one sift, no dead entry left behind (the engines' run cuts).
//
// Callbacks live out of the heap in a slab of nodes allocated in fixed chunks of kChunk. A
// chunk never moves, so FireNext invokes each callback in place: a callback that schedules
// enough to grow the slab does not relocate itself. Nodes recycle through a free list, so the
// steady-state schedule→fire cycle allocates nothing.
//
// Handles are (queue, node, generation) triples. Firing or cancelling bumps the node's
// generation, which makes the handle read !pending() and marks the node's heap entry, if one
// is still stored, dead. Cancel is lazy and O(1): the dead entry stays in the heap until it
// surfaces at the top or a push finds more than half the stored entries dead and compacts the
// heap in one O(n) sweep (without that, cancel-heavy schedulers would grow the heap with
// entries that sift through every push). A cancelled node returns to the free list only when
// its entry leaves the heap: sifts write the position of every entry they move, dead ones
// included, so reusing the node earlier would let the stale entry overwrite the position of
// the node's next event.
//
// One event lives outside the heap: the stream slot, which holds the next event of a long
// time-ordered stream (Simulator::StreamArrivals) under a reserved sequence number. Its callback
// is built once and re-armed in place with each firing, and FireNext fires whichever of the
// slot and the live heap top orders first, so a streamed event ties exactly as it would in the
// heap without paying for a slab node, a push and a pop.
//
// Lifetime rule: an EventHandle must not be *used* (Cancel/pending/Reschedule) after its queue
// is destroyed; destroying a handle is always safe. Every component in this codebase owns its
// handles inside objects that the simulator outlives, so this costs nothing in practice.
#ifndef DISTSERVE_SIMCORE_EVENT_QUEUE_H_
#define DISTSERVE_SIMCORE_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/inline_function.h"

namespace distserve::simcore {

using SimTime = double;  // seconds of virtual time

// Event callbacks: move-only, with 64 bytes of inline storage so the engine's step closures
// never touch the heap (std::function's ~16-byte buffer forced one allocation per event).
using EventCallback = InlineFunction<64>;

class EventQueue;

// Handle to a scheduled event; lets the owner cancel or re-time it before it fires. Trivially
// copyable.
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
  EventHandle Schedule(SimTime when, EventCallback&& fn) {
    return Push(when, next_seq_++, std::move(fn));
  }

  // Reserves `n` consecutive sequence numbers and returns the first. An event later scheduled
  // under one of them with ScheduleReserved (or armed in the stream slot) ties against every
  // other event exactly as if it had been scheduled at reservation time: after everything
  // scheduled before the reservation, before everything scheduled after it. This lets a
  // component decide later whether an event is needed at all, and a producer feed a long
  // time-ordered stream into the queue one event at a time without changing the order of
  // events at equal times.
  uint64_t ReserveSeqs(uint64_t n) {
    const uint64_t base = next_seq_;
    next_seq_ += n;
    return base;
  }

  // Schedules `fn` at `when` under a sequence number returned by ReserveSeqs (each at most
  // once).
  EventHandle ScheduleReserved(SimTime when, uint64_t seq, EventCallback&& fn);

  // Moves a pending event to `when`, keeping its callback and its handle, which stays
  // pending. The event takes a fresh sequence number, so it ties exactly as Cancel followed by
  // Schedule(when, ...) would, but leaves no dead entry behind. Returns false and changes
  // nothing when the handle is not pending here (fired, cancelled or default-constructed).
  bool Reschedule(const EventHandle& handle, SimTime when);

  // Moves a pending event to `when` like Reschedule, but keeps its sequence number: it ties
  // as if it had been scheduled at `when` where it was last scheduled or rescheduled. Returns
  // false and changes nothing when the handle is not pending here.
  bool Retime(const EventHandle& handle, SimTime when);

  // Arms the stream slot: `fn` fires at `when` under `seq`, a sequence number returned by
  // ReserveSeqs. Each firing must re-arm the slot (AdvanceStream) or end the stream
  // (EndStream) before it returns; the slot keeps `fn` and invokes it again at its next time.
  // Aborts if a stream is still armed or firing: one stream at a time.
  void BeginStream(SimTime when, uint64_t seq, EventCallback&& fn);

  // From inside the slot's callback: re-arms the slot at `when` under the next sequence number.
  void AdvanceStream(SimTime when) {
    stream_.time = when;
    ++stream_.seq;
  }

  // From inside the slot's callback: leaves the slot empty once the callback returns.
  void EndStream() { stream_ = kNoStream; }

  // True when no live (uncancelled) event remains, counting an armed stream slot.
  bool empty() const { return heap_.size() == dead_count_ && !StreamArmed(); }

  // Entries currently stored, counting cancelled-but-uncollected ones (upper bound on live)
  // and an armed stream slot.
  size_t size() const { return heap_.size() + (StreamArmed() ? 1 : 0); }

  // Events cancelled before they fired, over the queue's lifetime.
  uint64_t cancelled() const { return cancelled_; }

  // Time of the earliest live event, the stream slot's included; +infinity when empty. Drops
  // cancelled entries off the top of the heap.
  SimTime NextTime();

  // Fires the earliest live event if its time is at most `until`. A heap event is removed, its
  // handle marked fired, `on_fire(time)` called, its callback invoked where it lies in the
  // slab, and its node freed; the stream slot's callback is invoked where it lies too, and
  // destroyed only once it has ended the stream. The callback may schedule, cancel and re-time
  // other events. Returns false, firing nothing, when the queue is empty or the earliest event
  // is later than `until`.
  template <typename OnFire>
  bool FireNext(SimTime until, OnFire&& on_fire);

  bool FireNext(SimTime until = std::numeric_limits<SimTime>::infinity()) {
    return FireNext(until, [](SimTime) {});
  }

 private:
  friend class EventHandle;

  static constexpr uint32_t kNilNode = UINT32_MAX;
  // Slab chunk size. Small, so a short-lived queue pays for a few kilobytes of nodes: a
  // 1024-node first chunk made a benchmark that builds a Simulator per iteration 2.8x slower.
  static constexpr uint32_t kChunkShift = 6;
  static constexpr uint32_t kChunk = 1u << kChunkShift;

  // An entry is live iff its generation still matches its node's.
  struct Entry {
    SimTime time;
    uint64_t seq;
    uint32_t node;
    uint32_t generation;
  };
  static bool Before(const Entry& a, const Entry& b) {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }
  // The empty stream slot's key: after every heap entry, even one at +infinity, because no
  // sequence number handed out reaches UINT64_MAX.
  static constexpr Entry kNoStream{std::numeric_limits<SimTime>::infinity(), UINT64_MAX, 0, 0};
  bool StreamArmed() const { return stream_.seq != kNoStream.seq; }

  // Per-node bookkeeping, dense by node index. `link` is the heap position of the node's
  // entry while one is stored, and the next free node while the node is on the free list.
  struct Slot {
    uint32_t link;
    uint32_t generation;
  };

  EventCallback& Callback(uint32_t node) {
    return chunks_[node >> kChunkShift][node & (kChunk - 1)];
  }
  bool Live(const Entry& e) const { return slots_[e.node].generation == e.generation; }

  // Handle-side liveness/cancel (see EventHandle).
  bool HandlePending(uint32_t node, uint32_t generation) const {
    return slots_[node].generation == generation;
  }
  void CancelNode(uint32_t node, uint32_t generation);

  EventHandle Push(SimTime when, uint64_t seq, EventCallback&& fn);
  // Re-keys a pending event to `when` in place, with a fresh sequence number or its own;
  // false when the handle is not pending here.
  bool Move(const EventHandle& handle, SimTime when, bool fresh_seq);
  uint32_t AcquireNode();
  void FreeNode(uint32_t node) {
    slots_[node].link = free_head_;
    free_head_ = node;
  }

  // Heap maintenance: each sift moves `e` from the hole at `hole` to its place, writing the
  // position of every entry it moves.
  void Place(size_t pos, const Entry& e) {
    heap_[pos] = e;
    slots_[e.node].link = static_cast<uint32_t>(pos);
  }
  void SiftUp(size_t hole, Entry e);
  void SiftDown(size_t hole, Entry e);
  void RemoveTop() {
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      SiftDown(0, last);
    }
  }

  // Removes dead entries from the heap top, freeing their nodes. Requires dead_count_ != 0.
  void DropDead();

  // Rebuilds the heap without dead entries, freeing their nodes.
  void Compact();

  std::vector<Entry> heap_;
  Entry stream_ = kNoStream;  // the stream slot's key; node and generation unused
  EventCallback stream_fn_;   // set from BeginStream until the stream's last event returns
  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<EventCallback[]>> chunks_;
  uint32_t free_head_ = kNilNode;
  uint64_t next_seq_ = 0;
  size_t dead_count_ = 0;  // cancelled entries still stored in heap_
  uint64_t cancelled_ = 0;
};

template <typename OnFire>
bool EventQueue::FireNext(SimTime until, OnFire&& on_fire) {
  if (dead_count_ != 0) {
    DropDead();
  }
  if (heap_.empty() || Before(stream_, heap_.front())) {
    if (stream_.time > until || !StreamArmed()) {
      return false;
    }
    on_fire(stream_.time);
    stream_fn_();  // re-arms or ends the stream
    if (!StreamArmed()) {
      stream_fn_.reset();
    }
    return true;
  }
  if (heap_.front().time > until) {
    return false;
  }
  const Entry top = heap_.front();
  RemoveTop();
  ++slots_[top.node].generation;  // the handle reads !pending(); Cancel/Reschedule no-op
  on_fire(top.time);
  // Not on the free list and in a chunk that never moves: re-entrant Schedule calls neither
  // reuse this node nor relocate it.
  EventCallback& fn = Callback(top.node);
  fn();
  fn.reset();
  FreeNode(top.node);
  return true;
}

}  // namespace distserve::simcore

#endif  // DISTSERVE_SIMCORE_EVENT_QUEUE_H_

#include "simcore/event_queue.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace distserve::simcore {

void EventHandle::Cancel() {
  if (queue_ != nullptr) {
    queue_->CancelNode(node_, generation_);
    queue_ = nullptr;  // idempotent: later Cancel/pending short-circuit
  }
}

bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->HandlePending(node_, generation_);
}

uint32_t EventQueue::AcquireNode() {
  if (free_head_ != kNilNode) {
    const uint32_t node = free_head_;
    free_head_ = slots_[node].link;
    return node;
  }
  // Slab growth: the only allocations outside steady state.
  const auto node = static_cast<uint32_t>(slots_.size());
  if ((node & (kChunk - 1)) == 0) {
    chunks_.push_back(std::make_unique<EventCallback[]>(kChunk));
  }
  slots_.push_back(Slot{kNilNode, 0});
  return node;
}

void EventQueue::CancelNode(uint32_t node, uint32_t generation) {
  if (slots_[node].generation == generation) {
    ++slots_[node].generation;
    Callback(node).reset();  // free boxed callbacks promptly; inline ones just run their dtor
    ++dead_count_;  // the entry is still stored; its node is freed when the entry leaves
    ++cancelled_;
  }
}

EventHandle EventQueue::ScheduleReserved(SimTime when, uint64_t seq, EventCallback&& fn) {
  DS_DCHECK(seq < next_seq_) << "sequence number " << seq << " was never reserved";
  return Push(when, seq, std::move(fn));
}

void EventQueue::BeginStream(SimTime when, uint64_t seq, EventCallback&& fn) {
  DS_CHECK(!stream_fn_) << "a stream is still pending: one stream at a time";
  DS_DCHECK(seq < next_seq_) << "sequence number " << seq << " was never reserved";
  DS_DCHECK(when >= 0.0);
  stream_ = Entry{when, seq, 0, 0};
  stream_fn_ = std::move(fn);
}

EventHandle EventQueue::Push(SimTime when, uint64_t seq, EventCallback&& fn) {
  DS_DCHECK(when >= 0.0);
  const uint32_t node = AcquireNode();
  Callback(node) = std::move(fn);
  const uint32_t generation = slots_[node].generation;
  heap_.emplace_back();
  SiftUp(heap_.size() - 1, Entry{when, seq, node, generation});
  if (dead_count_ * 2 > heap_.size()) {
    Compact();
  }
  return EventHandle(this, node, generation);
}

bool EventQueue::Reschedule(const EventHandle& handle, SimTime when) {
  return Move(handle, when, /*fresh_seq=*/true);
}

bool EventQueue::Retime(const EventHandle& handle, SimTime when) {
  return Move(handle, when, /*fresh_seq=*/false);
}

bool EventQueue::Move(const EventHandle& handle, SimTime when, bool fresh_seq) {
  DS_DCHECK(when >= 0.0);
  if (handle.queue_ != this || !HandlePending(handle.node_, handle.generation_)) {
    return false;
  }
  const uint32_t pos = slots_[handle.node_].link;
  const Entry old = heap_[pos];
  Entry e = old;
  e.time = when;
  if (fresh_seq) {
    e.seq = next_seq_++;
  }
  if (Before(e, old)) {
    SiftUp(pos, e);
  } else {
    SiftDown(pos, e);
  }
  return true;
}

void EventQueue::SiftUp(size_t hole, Entry e) {
  while (hole > 0) {
    const size_t parent = (hole - 1) / 2;
    if (!Before(e, heap_[parent])) {
      break;
    }
    Place(hole, heap_[parent]);
    hole = parent;
  }
  Place(hole, e);
}

void EventQueue::SiftDown(size_t hole, Entry e) {
  const size_t n = heap_.size();
  for (size_t child; (child = 2 * hole + 1) < n; hole = child) {
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!Before(heap_[child], e)) {
      break;
    }
    Place(hole, heap_[child]);
  }
  Place(hole, e);
}

void EventQueue::DropDead() {
  while (dead_count_ != 0 && !Live(heap_.front())) {
    const uint32_t node = heap_.front().node;
    RemoveTop();
    FreeNode(node);
    --dead_count_;
  }
}

void EventQueue::Compact() {
  size_t kept = 0;
  for (size_t i = 0; i < heap_.size(); ++i) {
    const Entry e = heap_[i];
    if (Live(e)) {
      Place(kept++, e);
    } else {
      FreeNode(e.node);
    }
  }
  heap_.resize(kept);
  for (size_t i = kept / 2; i-- > 0;) {  // bottom-up heapify
    SiftDown(i, heap_[i]);
  }
  dead_count_ = 0;
}

SimTime EventQueue::NextTime() {
  if (dead_count_ != 0) {
    DropDead();
  }
  return heap_.empty() ? stream_.time : std::min(heap_.front().time, stream_.time);
}

}  // namespace distserve::simcore

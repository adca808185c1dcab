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

uint32_t EventQueue::AcquireNode(EventCallback&& fn) {
  uint32_t index;
  if (free_head_ != kNilNode) {
    index = free_head_;
    free_head_ = nodes_[index].next_free;
    nodes_[index].next_free = kNilNode;
  } else {
    index = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();  // slab growth: the only allocation outside steady state
  }
  nodes_[index].fn = std::move(fn);
  return index;
}

void EventQueue::ReleaseNode(uint32_t index) {
  Node& node = nodes_[index];
  node.fn.reset();  // free boxed callbacks promptly; inline ones just run their dtor
  ++node.generation;
  node.next_free = free_head_;
  free_head_ = index;
}

void EventQueue::CancelNode(uint32_t node, uint32_t generation) {
  if (node < nodes_.size() && nodes_[node].generation == generation) {
    ReleaseNode(node);
    ++dead_count_;  // entry is still stored in the heap; tally it for compaction
  }
}

EventHandle EventQueue::Schedule(SimTime when, EventCallback&& fn) {
  DS_DCHECK(when >= 0.0);
  const uint32_t node = AcquireNode(std::move(fn));
  const uint32_t generation = nodes_[node].generation;
  heap_.push_back(Entry{when, next_seq_++, node, generation});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  MaybeCompact();
  return EventHandle(this, node, generation);
}

void EventQueue::DropDead() const {
  if (dead_count_ == 0) {
    return;  // common case: skip the liveness load on the heap top entirely
  }
  while (!heap_.empty() && !EntryLive(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    --dead_count_;
  }
}

void EventQueue::MaybeCompact() {
  if (dead_count_ * 2 <= heap_.size()) {
    return;
  }
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Entry& e) { return !EntryLive(e); }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  dead_count_ = 0;
}

bool EventQueue::empty() const {
  DropDead();
  return heap_.empty();
}

SimTime EventQueue::NextTime() const {
  DropDead();
  if (heap_.empty()) {
    return std::numeric_limits<SimTime>::infinity();
  }
  return heap_.front().time;
}

EventQueue::Fired EventQueue::Pop() {
  MaybeCompact();
  DropDead();
  DS_CHECK(!heap_.empty()) << "Pop on empty event queue";
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry entry = heap_.back();
  heap_.pop_back();
  Fired fired{entry.time, std::move(nodes_[entry.node].fn)};
  ReleaseNode(entry.node);  // bumps the generation so handles report !pending()
  return fired;
}

}  // namespace distserve::simcore

// Slot storage whose elements never move and whose slots are reused once released.
//
// Elements live in slots inside fixed-size chunks (each a std::vector reserved to kChunk up
// front, so filling it never reallocates); growing the store adds a chunk and leaves every
// existing slot where it is, so a raw pointer stays valid until its element is released.
// Release() puts the slot on a free list and Acquire() refills the most recently released
// slot before it grows the store, so the memory a run touches is bounded by the peak number of
// live elements, not by how many were ever acquired. The serving systems keep their
// per-request states here and release each at its request's outcome, so a serving run's
// request state is O(in-flight), not O(trace).
//
// Each occupancy of a slot has a serial: the number of Acquire calls the store had served
// before it. A reference that can outlive its element (an event scheduled for a request that
// may finish first) keeps the serial next to the pointer and compares serial(pointer) before
// use; a released slot, and every later occupant of it, reads a different serial. Serials
// also order the live elements by acquisition (ForEachLive).
#ifndef DISTSERVE_COMMON_CHUNKED_STORE_H_
#define DISTSERVE_COMMON_CHUNKED_STORE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace distserve {

template <typename T, size_t kChunk = 1024>
class ChunkedStore {
 public:
  // Constructs an element in a free slot (the most recently released one) or, when none is
  // free, in a new slot at the end; returns its address, stable until Release.
  template <typename... Args>
  T* Acquire(Args&&... args) {
    Slot* slot = free_head_;
    if (slot != nullptr) {
      free_head_ = slot->next_free;
      // Rebuilt in place: no temporary element to construct and copy over the old one.
      slot->element.~T();
      ::new (static_cast<void*>(&slot->element)) T(std::forward<Args>(args)...);
    } else {
      const size_t chunk = slots_ / kChunk;
      if (chunk == chunks_.size()) {
        chunks_.emplace_back().reserve(kChunk);
      }
      slot = &chunks_[chunk].emplace_back(std::forward<Args>(args)...);
      ++slots_;
    }
    slot->serial = next_serial_++;
    ++live_;
    return &slot->element;
  }

  // Ends `element`'s occupancy: its slot's serial changes and the next Acquire reuses it.
  // `element` must be live and come from this store.
  void Release(T* element) {
    Slot* slot = SlotOf(element);
    slot->serial = kReleased;
    slot->next_free = free_head_;
    free_head_ = slot;
    --live_;
  }

  // The serial of the occupancy `element` belongs to (see the header comment). `element`
  // must point into a store of this type, live or released.
  static uint64_t serial(const T* element) { return SlotOf(element)->serial; }

  // Calls fn(T*) for every live element in acquisition order. fn may release the element it
  // is given, but must not acquire or release any other.
  template <typename Fn>
  void ForEachLive(Fn fn) {
    order_.clear();
    for (std::vector<Slot>& chunk : chunks_) {
      for (Slot& slot : chunk) {
        if (slot.serial != kReleased) {
          order_.push_back(&slot);
        }
      }
    }
    std::sort(order_.begin(), order_.end(),
              [](const Slot* a, const Slot* b) { return a->serial < b->serial; });
    for (Slot* slot : order_) {
      fn(&slot->element);
    }
  }

  // Elements acquired and not yet released.
  size_t live() const { return live_; }

 private:
  static constexpr uint64_t kReleased = UINT64_MAX;

  // The element is the slot's first member, so an element pointer converts to its slot (a
  // standard-layout struct and its first member are pointer-interconvertible), and the serial
  // sits beside the element without a lookup. A member, unlike a base, can be destroyed and
  // rebuilt in place while the slot's own pointers keep naming it.
  struct Slot {
    template <typename... Args>
    explicit Slot(Args&&... args) : element(std::forward<Args>(args)...) {}

    T element;
    uint64_t serial = kReleased;
    Slot* next_free = nullptr;  // free-list link while released
  };
  static_assert(std::is_standard_layout_v<Slot>, "element pointers convert to their slot");

  static Slot* SlotOf(T* element) { return reinterpret_cast<Slot*>(element); }
  static const Slot* SlotOf(const T* element) { return reinterpret_cast<const Slot*>(element); }

  std::vector<std::vector<Slot>> chunks_;
  size_t slots_ = 0;  // slots ever constructed, across every chunk
  size_t live_ = 0;
  uint64_t next_serial_ = 0;
  Slot* free_head_ = nullptr;
  std::vector<Slot*> order_;  // ForEachLive scratch
};

}  // namespace distserve

#endif  // DISTSERVE_COMMON_CHUNKED_STORE_H_

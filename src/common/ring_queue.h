// A FIFO over one growable power-of-two ring, for the engines' request queues.
//
// std::deque allocates a fixed-size node each time its tail crosses into a new one and frees
// the head node once it is drained, so a queue that every request passes through costs one
// malloc/free pair per node's worth of requests however short it stays (1/64 per request for
// pointers under libstdc++). A ring reuses its slots: it allocates only to grow past its
// largest occupancy so far and never shrinks.
//
// The interface is the subset of std::deque the engines use, with the same order and the
// same positional semantics: erase(it) removes one element, keeps the order of the rest, and
// returns an iterator to the element that followed it; like std::deque it shifts whichever
// side of the erased element is shorter, so erasing at either end is O(1). Any push or erase
// invalidates iterators. Elements must be trivially copyable (the engines queue pointers).
#ifndef DISTSERVE_COMMON_RING_QUEUE_H_
#define DISTSERVE_COMMON_RING_QUEUE_H_

#include <cstddef>
#include <iterator>
#include <type_traits>
#include <vector>

namespace distserve {

template <typename T>
class RingQueue {
  static_assert(std::is_trivially_copyable_v<T>, "RingQueue moves elements by copy");

 public:
  // Forward iterator over positions counted from the front.
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = T*;
    using reference = T&;

    iterator() = default;
    T& operator*() const { return (*queue_)[pos_]; }
    iterator& operator++() {
      ++pos_;
      return *this;
    }
    bool operator==(const iterator& other) const { return pos_ == other.pos_; }

   private:
    friend class RingQueue;
    iterator(RingQueue* queue, size_t pos) : queue_(queue), pos_(pos) {}

    RingQueue* queue_ = nullptr;
    size_t pos_ = 0;
  };

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  // The element `i` places behind the front.
  T& operator[](size_t i) { return slots_[(head_ + i) & mask()]; }

  T& front() { return (*this)[0]; }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, size_); }

  void push_back(T value) {
    if (size_ == slots_.size()) {
      Grow();
    }
    slots_[(head_ + size_) & mask()] = value;
    ++size_;
  }

  void pop_front() {
    head_ = (head_ + 1) & mask();
    --size_;
  }

  iterator erase(iterator it) {
    const size_t pos = it.pos_;
    if (pos < size_ / 2) {
      for (size_t i = pos; i > 0; --i) {  // close the gap from the front
        (*this)[i] = (*this)[i - 1];
      }
      pop_front();
    } else {
      for (size_t i = pos; i + 1 < size_; ++i) {  // close the gap from the back
        (*this)[i] = (*this)[i + 1];
      }
      --size_;
    }
    return iterator(this, pos);
  }

  // Empties the queue; the ring keeps its capacity.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  static constexpr size_t kMinSlots = 16;

  size_t mask() const { return slots_.size() - 1; }

  void Grow() {
    std::vector<T> grown(slots_.empty() ? kMinSlots : slots_.size() * 2);
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = (*this)[i];
    }
    slots_.swap(grown);
    head_ = 0;
  }

  std::vector<T> slots_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace distserve

#endif  // DISTSERVE_COMMON_RING_QUEUE_H_

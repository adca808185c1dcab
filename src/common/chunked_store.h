// Append-only storage whose elements never move, filled and emptied once per run.
//
// Elements live in fixed-size chunks (each a std::vector reserved to kChunk up front, so
// emplacing into it never reallocates); growing the store adds a chunk and leaves every
// existing element where it is, so raw pointers handed out stay valid until clear(). clear()
// destroys the elements but keeps the chunks, so a store refilled to its earlier size
// allocates nothing, and one that outgrows it allocates once per kChunk elements. The serving
// systems keep their per-request states here, so admitting a request allocates nothing.
#ifndef DISTSERVE_COMMON_CHUNKED_STORE_H_
#define DISTSERVE_COMMON_CHUNKED_STORE_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace distserve {

template <typename T, size_t kChunk = 1024>
class ChunkedStore {
 public:
  // Constructs an element at the end and returns its stable address.
  template <typename... Args>
  T* emplace_back(Args&&... args) {
    const size_t chunk = size_ / kChunk;
    if (chunk == chunks_.size()) {
      chunks_.emplace_back().reserve(kChunk);
    }
    std::vector<T>& elements = chunks_[chunk];
    elements.emplace_back(std::forward<Args>(args)...);
    ++size_;
    return &elements.back();
  }

  // Destroys every element; the chunks keep their capacity for the next fill.
  void clear() {
    for (std::vector<T>& elements : chunks_) {
      elements.clear();
    }
    size_ = 0;
  }

  size_t size() const { return size_; }

  // Elements in insertion order.
  T& operator[](size_t i) { return chunks_[i / kChunk][i % kChunk]; }

 private:
  std::vector<std::vector<T>> chunks_;
  size_t size_ = 0;
};

}  // namespace distserve

#endif  // DISTSERVE_COMMON_CHUNKED_STORE_H_

// Paged KV-cache block manager (the PagedAttention memory model).
//
// GPU memory left after weights is carved into fixed-size blocks of `block_size` token slots.
// Sequences reserve whole blocks; the manager tracks per-sequence holdings so growth by one
// token only allocates when a block boundary is crossed. The engine uses reservation-style
// admission (reserve the full final length up front) to model vLLM's preemption-free steady
// state, but the manager equally supports incremental growth — both paths are unit-tested.
//
// Every request reserves and releases here once per instance it visits, so the holdings live
// in SeqTable, a flat open-addressing table rather than a node-based map, which would pay a
// malloc and a free per sequence: a Reserve/Release cycle allocates nothing once the table has
// grown to the instance's peak residency, and a lookup is a multiply and a short linear probe.
#ifndef DISTSERVE_ENGINE_KV_BLOCK_MANAGER_H_
#define DISTSERVE_ENGINE_KV_BLOCK_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace distserve::engine {

using SeqId = int64_t;

// Map from SeqId to one sequence's holdings: open addressing over a power-of-two slot array,
// Fibonacci hashing, linear probing, and backward-shift deletion (no tombstones, so probe
// chains never rot under reserve/release churn). Grows by doubling past half full; Clear()
// keeps the slots for reuse. Any SeqId is a valid key, INT64_MIN and INT64_MAX included:
// emptiness is marked by a negative `blocks`, which no real holding has.
class SeqTable {
 public:
  struct Entry {
    SeqId seq = 0;
    int64_t tokens = 0;
    int64_t blocks = kEmpty;
  };

  // The entry for `seq`, or null when absent. Valid until the next Insert or Erase.
  Entry* Find(SeqId seq);
  const Entry* Find(SeqId seq) const;

  // Adds `seq` (which must be absent) with zero holdings and returns its entry.
  Entry* Insert(SeqId seq);

  // Removes an entry returned by Find or Insert.
  void Erase(Entry* entry);

  // Drops every entry; the slot array is kept.
  void Clear();

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

  // The slot `seq` hashes to in a table of `capacity` slots (a power of two, at least 2).
  // Exposed so tests can build ids that collide or whose probe chains wrap.
  static size_t HomeSlot(SeqId seq, size_t capacity);

 private:
  static constexpr int64_t kEmpty = -1;

  size_t Home(SeqId seq) const;
  // Index of `seq`'s slot, or of the empty slot that ends its probe chain.
  size_t Probe(SeqId seq) const;
  void Rehash(size_t capacity);

  std::vector<Entry> slots_;
  size_t size_ = 0;
  int shift_ = 64;  // 64 - log2(capacity)
};

class KvBlockManager {
 public:
  // `capacity_tokens` is the pool size in token slots; `block_size` the tokens per block.
  KvBlockManager(int64_t capacity_tokens, int block_size);

  int64_t total_blocks() const { return total_blocks_; }
  int64_t free_blocks() const { return total_blocks_ - used_blocks_; }
  int64_t used_blocks() const { return used_blocks_; }
  int block_size() const { return block_size_; }

  // Blocks needed to hold `tokens` token slots.
  int64_t BlocksForTokens(int64_t tokens) const {
    return (tokens + block_size_ - 1) / block_size_;
  }

  // Whether a fresh reservation of `tokens` slots would succeed right now.
  bool CanReserve(int64_t tokens) const;

  // Reserves blocks for a new sequence expected to reach `tokens` slots. Returns false (and
  // changes nothing) when the pool cannot satisfy it. The sequence must not already exist.
  bool Reserve(SeqId seq, int64_t tokens);

  // Grows an existing sequence's reservation by `extra` tokens (allocating blocks only when
  // a boundary is crossed). Returns false without changes when the pool is exhausted.
  bool Grow(SeqId seq, int64_t extra);

  // Releases every block held by `seq`. CHECK-fails if the sequence is unknown.
  void Release(SeqId seq);

  // Drops every sequence at once (the owning GPU failed; its memory contents are gone).
  void Clear();

  bool Holds(SeqId seq) const { return sequences_.Find(seq) != nullptr; }
  int64_t SequenceTokens(SeqId seq) const;
  size_t sequence_count() const { return sequences_.size(); }

 private:
  int64_t total_blocks_;
  int block_size_;
  int64_t used_blocks_ = 0;
  SeqTable sequences_;
};

}  // namespace distserve::engine

#endif  // DISTSERVE_ENGINE_KV_BLOCK_MANAGER_H_

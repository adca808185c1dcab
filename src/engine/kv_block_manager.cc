#include "engine/kv_block_manager.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace distserve::engine {

namespace {

constexpr size_t kMinTableSlots = 16;

// Multiplicative (Fibonacci) hashing by 2^64 / golden ratio, keeping the top `64 - shift`
// bits: consecutive request ids spread evenly over the table.
size_t FibonacciHash(SeqId seq, int shift) {
  return static_cast<size_t>((static_cast<uint64_t>(seq) * 0x9E3779B97F4A7C15ull) >> shift);
}

}  // namespace

size_t SeqTable::HomeSlot(SeqId seq, size_t capacity) {
  DS_CHECK(capacity >= 2 && std::has_single_bit(capacity))
      << "table capacity " << capacity << " is not a power of two >= 2";
  return FibonacciHash(seq, 64 - std::countr_zero(capacity));
}

size_t SeqTable::Home(SeqId seq) const { return FibonacciHash(seq, shift_); }

size_t SeqTable::Probe(SeqId seq) const {
  const size_t mask = slots_.size() - 1;
  size_t i = Home(seq);
  while (slots_[i].blocks != kEmpty && slots_[i].seq != seq) {
    i = (i + 1) & mask;
  }
  return i;
}

SeqTable::Entry* SeqTable::Find(SeqId seq) {
  return const_cast<Entry*>(static_cast<const SeqTable*>(this)->Find(seq));
}

const SeqTable::Entry* SeqTable::Find(SeqId seq) const {
  if (size_ == 0) {
    return nullptr;
  }
  const Entry& slot = slots_[Probe(seq)];
  return slot.blocks == kEmpty ? nullptr : &slot;
}

SeqTable::Entry* SeqTable::Insert(SeqId seq) {
  if ((size_ + 1) * 2 > slots_.size()) {
    Rehash(std::max(kMinTableSlots, slots_.size() * 2));
  }
  Entry& slot = slots_[Probe(seq)];
  DS_DCHECK(slot.blocks == kEmpty) << "sequence " << seq << " inserted twice";
  slot = Entry{seq, 0, 0};
  ++size_;
  return &slot;
}

void SeqTable::Erase(Entry* entry) {
  const size_t mask = slots_.size() - 1;
  size_t hole = static_cast<size_t>(entry - slots_.data());
  DS_DCHECK(hole < slots_.size() && entry->blocks != kEmpty);
  // Backward shift: walk the rest of the probe chain and pull back every entry whose home is
  // not strictly after the hole (cyclically), so each entry stays reachable from its home
  // without tombstones.
  for (size_t j = (hole + 1) & mask; slots_[j].blocks != kEmpty; j = (j + 1) & mask) {
    const size_t home = Home(slots_[j].seq);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].blocks = kEmpty;
  --size_;
}

void SeqTable::Clear() {
  if (size_ == 0) {
    return;
  }
  for (Entry& slot : slots_) {
    slot.blocks = kEmpty;
  }
  size_ = 0;
}

void SeqTable::Rehash(size_t capacity) {
  std::vector<Entry> old(capacity);
  old.swap(slots_);
  shift_ = 64 - std::countr_zero(capacity);
  for (const Entry& e : old) {
    if (e.blocks != kEmpty) {
      slots_[Probe(e.seq)] = e;
    }
  }
}

KvBlockManager::KvBlockManager(int64_t capacity_tokens, int block_size)
    : block_size_(block_size) {
  DS_CHECK_GE(capacity_tokens, 0);
  DS_CHECK_GT(block_size, 0);
  total_blocks_ = capacity_tokens / block_size;
}

bool KvBlockManager::CanReserve(int64_t tokens) const {
  return BlocksForTokens(tokens) <= free_blocks();
}

bool KvBlockManager::Reserve(SeqId seq, int64_t tokens) {
  DS_CHECK(!Holds(seq)) << "sequence " << seq << " already reserved";
  DS_CHECK_GE(tokens, 0);
  const int64_t blocks = BlocksForTokens(tokens);
  if (blocks > free_blocks()) {
    return false;
  }
  SeqTable::Entry* entry = sequences_.Insert(seq);
  entry->tokens = tokens;
  entry->blocks = blocks;
  used_blocks_ += blocks;
  return true;
}

bool KvBlockManager::Grow(SeqId seq, int64_t extra) {
  DS_CHECK_GE(extra, 0);
  SeqTable::Entry* entry = sequences_.Find(seq);
  DS_CHECK(entry != nullptr) << "growing unknown sequence " << seq;
  const int64_t new_tokens = entry->tokens + extra;
  const int64_t new_blocks = BlocksForTokens(new_tokens);
  const int64_t delta = new_blocks - entry->blocks;
  if (delta > free_blocks()) {
    return false;
  }
  entry->tokens = new_tokens;
  entry->blocks = new_blocks;
  used_blocks_ += delta;
  return true;
}

void KvBlockManager::Release(SeqId seq) {
  SeqTable::Entry* entry = sequences_.Find(seq);
  DS_CHECK(entry != nullptr) << "releasing unknown sequence " << seq;
  used_blocks_ -= entry->blocks;
  DS_DCHECK(used_blocks_ >= 0);
  sequences_.Erase(entry);
}

void KvBlockManager::Clear() {
  sequences_.Clear();
  used_blocks_ = 0;
}

int64_t KvBlockManager::SequenceTokens(SeqId seq) const {
  const SeqTable::Entry* entry = sequences_.Find(seq);
  return entry == nullptr ? 0 : entry->tokens;
}

}  // namespace distserve::engine

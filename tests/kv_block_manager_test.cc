#include "engine/kv_block_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "common/rng.h"

namespace distserve::engine {
namespace {

TEST(KvBlockManagerTest, CapacityRoundsDownToBlocks) {
  KvBlockManager kv(100, 16);
  EXPECT_EQ(kv.total_blocks(), 6);  // 100 / 16
  EXPECT_EQ(kv.free_blocks(), 6);
  EXPECT_EQ(kv.used_blocks(), 0);
}

TEST(KvBlockManagerTest, BlocksForTokensCeil) {
  KvBlockManager kv(1024, 16);
  EXPECT_EQ(kv.BlocksForTokens(0), 0);
  EXPECT_EQ(kv.BlocksForTokens(1), 1);
  EXPECT_EQ(kv.BlocksForTokens(16), 1);
  EXPECT_EQ(kv.BlocksForTokens(17), 2);
  EXPECT_EQ(kv.BlocksForTokens(160), 10);
}

TEST(KvBlockManagerTest, ReserveAndRelease) {
  KvBlockManager kv(1024, 16);  // 64 blocks
  EXPECT_TRUE(kv.Reserve(1, 100));  // 7 blocks
  EXPECT_EQ(kv.used_blocks(), 7);
  EXPECT_TRUE(kv.Holds(1));
  EXPECT_EQ(kv.SequenceTokens(1), 100);
  kv.Release(1);
  EXPECT_EQ(kv.used_blocks(), 0);
  EXPECT_FALSE(kv.Holds(1));
}

TEST(KvBlockManagerTest, ReserveFailsWithoutSideEffects) {
  KvBlockManager kv(64, 16);  // 4 blocks
  EXPECT_TRUE(kv.Reserve(1, 48));  // 3 blocks
  EXPECT_FALSE(kv.CanReserve(32));
  EXPECT_FALSE(kv.Reserve(2, 32));  // needs 2, only 1 free
  EXPECT_EQ(kv.used_blocks(), 3);
  EXPECT_FALSE(kv.Holds(2));
  EXPECT_TRUE(kv.Reserve(3, 16));  // exactly the last block
  EXPECT_EQ(kv.free_blocks(), 0);
}

TEST(KvBlockManagerTest, GrowWithinBlockIsFree) {
  KvBlockManager kv(1024, 16);
  EXPECT_TRUE(kv.Reserve(1, 10));
  EXPECT_EQ(kv.used_blocks(), 1);
  EXPECT_TRUE(kv.Grow(1, 6));  // 16 tokens, still one block
  EXPECT_EQ(kv.used_blocks(), 1);
  EXPECT_TRUE(kv.Grow(1, 1));  // 17 tokens crosses the boundary
  EXPECT_EQ(kv.used_blocks(), 2);
  EXPECT_EQ(kv.SequenceTokens(1), 17);
}

TEST(KvBlockManagerTest, GrowFailsWhenExhausted) {
  KvBlockManager kv(32, 16);  // 2 blocks
  EXPECT_TRUE(kv.Reserve(1, 16));
  EXPECT_TRUE(kv.Reserve(2, 16));
  EXPECT_FALSE(kv.Grow(1, 1));
  EXPECT_EQ(kv.SequenceTokens(1), 16);  // unchanged on failure
  kv.Release(2);
  EXPECT_TRUE(kv.Grow(1, 1));
}

TEST(KvBlockManagerTest, ZeroTokenReservation) {
  KvBlockManager kv(64, 16);
  EXPECT_TRUE(kv.Reserve(1, 0));
  EXPECT_EQ(kv.used_blocks(), 0);
  EXPECT_TRUE(kv.Holds(1));
  kv.Release(1);
}

TEST(KvBlockManagerDeathTest, DoubleReserveAborts) {
  KvBlockManager kv(64, 16);
  EXPECT_TRUE(kv.Reserve(1, 16));
  EXPECT_DEATH(kv.Reserve(1, 16), "already reserved");
}

TEST(KvBlockManagerDeathTest, ReleaseUnknownAborts) {
  KvBlockManager kv(64, 16);
  EXPECT_DEATH(kv.Release(99), "unknown sequence");
}

// Property test: a random sequence of reserve/grow/release never corrupts the accounting.
TEST(KvBlockManagerPropertyTest, RandomOpsPreserveInvariants) {
  distserve::Rng rng(777);
  KvBlockManager kv(10000, 16);
  std::vector<SeqId> live;
  SeqId next_id = 0;
  for (int step = 0; step < 5000; ++step) {
    const double op = rng.NextDouble();
    if (op < 0.4) {
      const int64_t tokens = rng.UniformInt(1, 400);
      if (kv.Reserve(next_id, tokens)) {
        live.push_back(next_id);
      }
      ++next_id;
    } else if (op < 0.7 && !live.empty()) {
      const SeqId seq = live[static_cast<size_t>(rng.UniformInt(0, live.size() - 1))];
      kv.Grow(seq, rng.UniformInt(1, 32));
    } else if (!live.empty()) {
      const size_t pick = static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      kv.Release(live[pick]);
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
    }
    // Invariants: non-negative free space, sequence count consistency, used <= total.
    ASSERT_GE(kv.free_blocks(), 0);
    ASSERT_LE(kv.used_blocks(), kv.total_blocks());
    ASSERT_EQ(kv.sequence_count(), live.size());
  }
  for (SeqId seq : live) {
    kv.Release(seq);
  }
  EXPECT_EQ(kv.used_blocks(), 0);
  EXPECT_EQ(kv.sequence_count(), 0u);
}

// --- SeqTable: the open-addressing table behind the manager ---------------------------------

constexpr SeqId kMaxId = std::numeric_limits<SeqId>::max();
constexpr SeqId kMinId = std::numeric_limits<SeqId>::min();
constexpr size_t kWideTable = 1024;

// The first `count` ids from `start` (stepping by `step`) whose home is `slot` of a
// kWideTable-slot table. Fibonacci hashing keeps the hash's top bits, so these ids also share
// a home in every smaller table (slot >> k): ids homed on the last slot stay on the last slot
// at every size, and their probe chain wraps around the end of the table whatever its size.
std::vector<SeqId> IdsHomedAt(size_t slot, size_t count, SeqId start, SeqId step) {
  std::vector<SeqId> ids;
  for (SeqId id = start; ids.size() < count; id += step) {
    if (SeqTable::HomeSlot(id, kWideTable) == slot) {
      ids.push_back(id);
    }
  }
  return ids;
}

// Hostile keys: two colliding clusters, one homed on the last slot (near INT64_MAX and
// negative) whose chain wraps into the other, homed on slot 0 (from 0 and from INT64_MIN);
// the extreme ids themselves; and random ids spread over the whole range.
std::vector<SeqId> HostileIds(uint64_t seed) {
  std::vector<SeqId> ids;
  for (const std::vector<SeqId>& cluster :
       {IdsHomedAt(kWideTable - 1, 12, kMaxId, -1), IdsHomedAt(kWideTable - 1, 12, -1, -1),
        IdsHomedAt(0, 12, 0, 1), IdsHomedAt(0, 12, kMinId, 1)}) {
    ids.insert(ids.end(), cluster.begin(), cluster.end());
  }
  for (const SeqId id : {kMinId, kMinId + 1, SeqId{-1}, SeqId{0}, SeqId{1}, kMaxId - 1, kMaxId}) {
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
      ids.push_back(id);
    }
  }
  distserve::Rng rng(seed);
  for (int i = 0; i < 100; ++i) {
    ids.push_back(static_cast<SeqId>(rng.NextU64()));
  }
  return ids;
}

TEST(KvBlockManagerTableTest, HostileClustersShareHomesAtEverySize) {
  for (const SeqId id : IdsHomedAt(kWideTable - 1, 12, kMaxId, -1)) {
    for (size_t capacity = 2; capacity <= kWideTable; capacity *= 2) {
      ASSERT_EQ(SeqTable::HomeSlot(id, capacity), capacity - 1) << id;
    }
  }
  for (const SeqId id : IdsHomedAt(0, 12, kMinId, 1)) {
    ASSERT_EQ(SeqTable::HomeSlot(id, 16), 0u) << id;
  }
}

// Every id in `ids` reads the same from the table as from the reference map.
void ExpectTableMatches(const SeqTable& table, const std::map<SeqId, int64_t>& ref,
                        const std::vector<SeqId>& ids) {
  ASSERT_EQ(table.size(), ref.size());
  for (const SeqId id : ids) {
    const SeqTable::Entry* entry = table.Find(id);
    const auto it = ref.find(id);
    ASSERT_EQ(entry != nullptr, it != ref.end()) << "id " << id;
    if (entry != nullptr) {
      ASSERT_EQ(entry->seq, id);
      ASSERT_EQ(entry->tokens, it->second) << "id " << id;
    }
  }
}

// Property test against std::map: fill the table with every hostile id in random order (the
// clusters ride through each rehash), drain it in random order (each erase backward-shifts
// chains that cross the end of the table), then churn at random; after a Clear the same slots
// serve a second round.
TEST(KvBlockManagerTableTest, MatchesMapReferenceUnderHostileIds) {
  const std::vector<SeqId> ids = HostileIds(4242);
  distserve::Rng rng(99);
  SeqTable table;
  std::map<SeqId, int64_t> ref;
  auto shuffled = [&] {
    std::vector<SeqId> order = ids;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<size_t>(rng.UniformInt(0, i - 1))]);
    }
    return order;
  };
  for (int round = 0; round < 2; ++round) {
    for (const SeqId id : shuffled()) {
      SeqTable::Entry* entry = table.Insert(id);
      entry->tokens = id & 0xFFFF;
      entry->blocks = 1;
      ref[id] = id & 0xFFFF;
      ASSERT_NO_FATAL_FAILURE(ExpectTableMatches(table, ref, ids));
    }
    EXPECT_GE(table.capacity(), 2 * ids.size());
    for (const SeqId id : shuffled()) {
      table.Erase(table.Find(id));
      ref.erase(id);
      ASSERT_NO_FATAL_FAILURE(ExpectTableMatches(table, ref, ids));
    }
    for (int op = 0; op < 4000; ++op) {
      const SeqId id = ids[static_cast<size_t>(rng.UniformInt(0, ids.size() - 1))];
      if (SeqTable::Entry* entry = table.Find(id)) {
        if (rng.NextDouble() < 0.6) {
          table.Erase(entry);
          ref.erase(id);
        } else {
          entry->tokens += 1;
          ref[id] += 1;
        }
      } else {
        SeqTable::Entry* inserted = table.Insert(id);
        inserted->blocks = 0;
        ref[id] = 0;
      }
      ASSERT_NO_FATAL_FAILURE(ExpectTableMatches(table, ref, ids));
    }
    const size_t capacity = table.capacity();
    table.Clear();
    ref.clear();
    ASSERT_NO_FATAL_FAILURE(ExpectTableMatches(table, ref, ids));
    EXPECT_EQ(table.capacity(), capacity) << "Clear keeps the slots for reuse";
  }
}

// The manager over hostile ids against a reference model: holdings, block accounting and
// Holds/SequenceTokens after every reserve, grow, release and occasional Clear (a GPU
// failure), with the pool small enough that reservations and growth sometimes fail.
TEST(KvBlockManagerPropertyTest, HostileIdsMatchMapReference) {
  const std::vector<SeqId> ids = HostileIds(7);
  constexpr int kBlock = 16;
  auto blocks_for = [](int64_t tokens) { return (tokens + kBlock - 1) / kBlock; };
  KvBlockManager kv(200'000, kBlock);
  std::map<SeqId, int64_t> ref;  // tokens held per sequence
  int64_t ref_used = 0;
  distserve::Rng rng(2024);
  int clears = 0;
  int failed_reserves = 0;
  for (int op = 0; op < 20000; ++op) {
    const SeqId id = ids[static_cast<size_t>(rng.UniformInt(0, ids.size() - 1))];
    const double dice = rng.NextDouble();
    const auto it = ref.find(id);
    if (dice < 0.001) {
      kv.Clear();
      ref.clear();
      ref_used = 0;
      ++clears;
    } else if (it == ref.end()) {
      const int64_t tokens = rng.UniformInt(0, 4000);
      const bool fits = blocks_for(tokens) <= kv.total_blocks() - ref_used;
      ASSERT_EQ(kv.Reserve(id, tokens), fits) << "id " << id;
      if (fits) {
        ref[id] = tokens;
        ref_used += blocks_for(tokens);
      } else {
        ++failed_reserves;
      }
    } else if (dice < 0.3) {
      const int64_t extra = rng.UniformInt(0, 64);
      const int64_t delta = blocks_for(it->second + extra) - blocks_for(it->second);
      const bool fits = delta <= kv.total_blocks() - ref_used;
      ASSERT_EQ(kv.Grow(id, extra), fits) << "id " << id;
      if (fits) {
        it->second += extra;
        ref_used += delta;
      }
    } else {
      kv.Release(id);
      ref_used -= blocks_for(it->second);
      ref.erase(it);
    }
    ASSERT_EQ(kv.sequence_count(), ref.size());
    ASSERT_EQ(kv.used_blocks(), ref_used);
    for (const SeqId probe : ids) {
      const auto held = ref.find(probe);
      ASSERT_EQ(kv.Holds(probe), held != ref.end()) << "id " << probe;
      ASSERT_EQ(kv.SequenceTokens(probe), held == ref.end() ? 0 : held->second);
    }
  }
  EXPECT_GT(clears, 0);
  EXPECT_GT(failed_reserves, 0);
}

}  // namespace
}  // namespace distserve::engine

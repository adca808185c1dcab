#include "common/chunked_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace distserve {
namespace {

struct Item {
  explicit Item(int v) : value(v) {}
  int value;
};

using Store = ChunkedStore<Item, 4>;

std::vector<int> LiveValues(Store& store) {
  std::vector<int> values;
  store.ForEachLive([&values](Item* item) { values.push_back(item->value); });
  return values;
}

TEST(ChunkedStoreTest, ReleasedSlotIsReusedBeforeTheStoreGrows) {
  Store store;
  Item* a = store.Acquire(1);
  Item* b = store.Acquire(2);
  store.Release(a);
  Item* c = store.Acquire(3);
  EXPECT_EQ(c, a);
  EXPECT_EQ(c->value, 3);
  EXPECT_EQ(b->value, 2);
  EXPECT_EQ(store.live(), 2u);
  // Most recently released first.
  store.Release(b);
  store.Release(c);
  EXPECT_EQ(store.Acquire(4), c);
  EXPECT_EQ(store.Acquire(5), b);
}

TEST(ChunkedStoreTest, AddressesSurviveChunkGrowth) {
  Store store;
  std::vector<Item*> items;
  for (int i = 0; i < 19; ++i) {
    items.push_back(store.Acquire(i));
  }
  for (int i = 0; i < 19; ++i) {
    EXPECT_EQ(items[static_cast<size_t>(i)]->value, i);
  }
}

TEST(ChunkedStoreTest, SerialChangesWhenTheSlotChangesHands) {
  Store store;
  Item* a = store.Acquire(1);
  const uint64_t first = Store::serial(a);
  EXPECT_EQ(Store::serial(a), first);
  store.Release(a);
  EXPECT_NE(Store::serial(a), first);
  Item* b = store.Acquire(2);
  ASSERT_EQ(b, a);
  EXPECT_NE(Store::serial(b), first);
  const uint64_t second = Store::serial(b);
  store.Release(b);
  Item* c = store.Acquire(3);
  ASSERT_EQ(c, a);
  EXPECT_NE(Store::serial(c), first);
  EXPECT_NE(Store::serial(c), second);
}

TEST(ChunkedStoreTest, ForEachLiveVisitsInAcquisitionOrder) {
  Store store;
  std::vector<Item*> items;
  for (int i = 0; i < 10; ++i) {
    items.push_back(store.Acquire(i));
  }
  store.Release(items[2]);
  store.Release(items[7]);
  store.Release(items[0]);
  // Refill the freed slots: the newest acquisitions sit in the oldest slots.
  store.Acquire(10);
  store.Acquire(11);
  EXPECT_EQ(LiveValues(store), (std::vector<int>{1, 3, 4, 5, 6, 8, 9, 10, 11}));
  // The visitor may release the element it is given.
  store.ForEachLive([&store](Item* item) {
    if (item->value % 2 == 0) {
      store.Release(item);
    }
  });
  EXPECT_EQ(LiveValues(store), (std::vector<int>{1, 3, 5, 9, 11}));
  EXPECT_EQ(store.live(), 5u);
}

}  // namespace
}  // namespace distserve

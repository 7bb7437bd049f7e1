#include "core/ssd_heap.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"

namespace turbobp {
namespace {

// Fixture: the production heap over a table whose records' LRU-2 keys
// drive it (the CW/DW/LC key).
class SsdHeapTest : public ::testing::Test {
 protected:
  SsdHeapTest() : table_(32), heap_(&table_, SsdFrameKey{&table_, false}) {}

  int32_t MakeRecord(Time key) {
    const int32_t rec = table_.PopFree();
    EXPECT_NE(rec, -1);
    table_.record(rec).access[1] = key;
    return rec;
  }

  SsdBufferTable table_;
  SsdSplitHeap<> heap_;
};

TEST_F(SsdHeapTest, CleanRootIsMinimum) {
  heap_.InsertClean(MakeRecord(30));
  heap_.InsertClean(MakeRecord(10));
  heap_.InsertClean(MakeRecord(20));
  const int32_t root = heap_.CleanRoot();
  EXPECT_EQ(table_.record(root).Lru2Key(), 10);
  EXPECT_TRUE(heap_.CheckInvariants());
}

TEST_F(SsdHeapTest, DirtyRootIsMinimum) {
  heap_.InsertDirty(MakeRecord(5));
  heap_.InsertDirty(MakeRecord(1));
  heap_.InsertDirty(MakeRecord(3));
  EXPECT_EQ(table_.record(heap_.DirtyRoot()).Lru2Key(), 1);
  EXPECT_EQ(heap_.dirty_size(), 3);
  EXPECT_EQ(heap_.clean_size(), 0);
  EXPECT_TRUE(heap_.CheckInvariants());
}

TEST_F(SsdHeapTest, HeapsShareOneArrayWithoutCollision) {
  // Fill both heaps to jointly occupy the whole array.
  for (int i = 0; i < 16; ++i) heap_.InsertClean(MakeRecord(i));
  for (int i = 0; i < 16; ++i) heap_.InsertDirty(MakeRecord(100 + i));
  EXPECT_EQ(heap_.clean_size(), 16);
  EXPECT_EQ(heap_.dirty_size(), 16);
  EXPECT_TRUE(heap_.CheckInvariants());
  EXPECT_EQ(table_.record(heap_.CleanRoot()).Lru2Key(), 0);
  EXPECT_EQ(table_.record(heap_.DirtyRoot()).Lru2Key(), 100);
}

TEST_F(SsdHeapTest, RemoveArbitraryElement) {
  const int32_t a = MakeRecord(1);
  const int32_t b = MakeRecord(2);
  const int32_t c = MakeRecord(3);
  heap_.InsertClean(a);
  heap_.InsertClean(b);
  heap_.InsertClean(c);
  heap_.Remove(b);
  EXPECT_EQ(heap_.clean_size(), 2);
  EXPECT_FALSE(heap_.Contains(b));
  EXPECT_EQ(table_.record(b).heap_pos, -1);
  EXPECT_TRUE(heap_.CheckInvariants());
}

TEST_F(SsdHeapTest, RemoveRootPromotesNextMinimum) {
  const int32_t a = MakeRecord(1);
  heap_.InsertClean(a);
  heap_.InsertClean(MakeRecord(7));
  heap_.InsertClean(MakeRecord(4));
  heap_.Remove(a);
  EXPECT_EQ(table_.record(heap_.CleanRoot()).Lru2Key(), 4);
}

TEST_F(SsdHeapTest, RemoveAbsentIsNoOp) {
  const int32_t a = MakeRecord(1);
  heap_.Remove(a);  // never inserted
  EXPECT_EQ(heap_.clean_size(), 0);
}

TEST_F(SsdHeapTest, UpdateKeyReordersHeap) {
  const int32_t a = MakeRecord(10);
  const int32_t b = MakeRecord(20);
  heap_.InsertClean(a);
  heap_.InsertClean(b);
  table_.record(a).access[1] = 99;  // a is now the newest
  heap_.UpdateKey(a);
  EXPECT_EQ(heap_.CleanRoot(), b);
  EXPECT_TRUE(heap_.CheckInvariants());
}

TEST_F(SsdHeapTest, DirtyToCleanMovesAcrossHeaps) {
  const int32_t a = MakeRecord(5);
  heap_.InsertDirty(a);
  EXPECT_TRUE(heap_.IsDirtySide(a));
  heap_.DirtyToClean(a);
  EXPECT_FALSE(heap_.IsDirtySide(a));
  EXPECT_EQ(heap_.clean_size(), 1);
  EXPECT_EQ(heap_.dirty_size(), 0);
  EXPECT_EQ(heap_.CleanRoot(), a);
  EXPECT_TRUE(heap_.CheckInvariants());
}

TEST_F(SsdHeapTest, EmptyRootsAreMinusOne) {
  EXPECT_EQ(heap_.CleanRoot(), -1);
  EXPECT_EQ(heap_.DirtyRoot(), -1);
}

TEST_F(SsdHeapTest, KeyOfReadsThePenultimateAccess) {
  const int32_t a = MakeRecord(42);
  table_.record(a).temperature = 7.5;  // ignored by the LRU-2 key
  EXPECT_EQ(heap_.KeyOf(a), 42.0);
}

// TAC's key: the temperature snapshot orders the heap, and the LRU-2 access
// times are ignored.
TEST(SsdHeapTemperatureTest, TemperatureKeyOrdersByTemperatureNotAccess) {
  SsdBufferTable table(8);
  SsdSplitHeap<> heap(&table, SsdFrameKey{&table, /*by_temperature=*/true});
  const double temps[] = {3.0, 0.5, 9.0};
  const Time accesses[] = {1, 900, 5};  // LRU-2 would pick the first
  int32_t recs[3];
  for (int i = 0; i < 3; ++i) {
    recs[i] = table.PopFree();
    table.record(recs[i]).access[1] = accesses[i];
    table.record(recs[i]).temperature = temps[i];
    heap.InsertClean(recs[i]);
  }
  EXPECT_EQ(heap.CleanRoot(), recs[1]);
  EXPECT_EQ(heap.KeyOf(recs[1]), 0.5);

  // The coldest frame's extent heats up past the others: the next-coldest
  // becomes the victim once the key is refreshed.
  table.record(recs[1]).temperature = 20.0;
  heap.UpdateKey(recs[1]);
  EXPECT_EQ(heap.CleanRoot(), recs[0]);
  // A touch changes only the LRU-2 key, so the order stands.
  table.record(recs[0]).Touch(10000);
  table.record(recs[0]).Touch(10001);
  heap.UpdateKey(recs[0]);
  EXPECT_EQ(heap.CleanRoot(), recs[0]);
  EXPECT_TRUE(heap.CheckInvariants());
}

// Property test: random interleavings of insert / remove / update /
// dirty-to-clean preserve the heap invariants, and repeatedly popping the
// clean root drains keys in nondecreasing order.
TEST(SsdHeapPropertyTest, RandomOpsPreserveInvariants) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SsdBufferTable table(64);
    SsdSplitHeap heap(&table, [&table](int32_t rec) {
      return static_cast<double>(table.record(rec).Lru2Key());
    });
    Rng rng(seed);
    std::set<int32_t> in_heap;
    for (int step = 0; step < 5000; ++step) {
      const uint64_t op = rng.Uniform(4);
      if (op == 0 && table.used() < table.capacity()) {
        const int32_t rec = table.PopFree();
        table.record(rec).access[1] = static_cast<Time>(rng.Uniform(1000));
        if (rng.Bernoulli(0.5)) {
          heap.InsertClean(rec);
        } else {
          heap.InsertDirty(rec);
        }
        in_heap.insert(rec);
      } else if (op == 1 && !in_heap.empty()) {
        auto it = in_heap.begin();
        std::advance(it, rng.Uniform(in_heap.size()));
        heap.Remove(*it);
        table.PushFree(*it);
        in_heap.erase(it);
      } else if (op == 2 && !in_heap.empty()) {
        auto it = in_heap.begin();
        std::advance(it, rng.Uniform(in_heap.size()));
        table.record(*it).Touch(static_cast<Time>(rng.Uniform(1000)));
        heap.UpdateKey(*it);
      } else if (op == 3 && !in_heap.empty()) {
        auto it = in_heap.begin();
        std::advance(it, rng.Uniform(in_heap.size()));
        if (heap.IsDirtySide(*it)) heap.DirtyToClean(*it);
      }
      ASSERT_TRUE(heap.CheckInvariants()) << "seed " << seed << " step " << step;
    }
    // Drain the clean heap: keys must come out sorted.
    double prev = -1;
    while (heap.CleanRoot() != -1) {
      const int32_t root = heap.CleanRoot();
      const double key = static_cast<double>(table.record(root).Lru2Key());
      ASSERT_GE(key, prev);
      prev = key;
      heap.Remove(root);
    }
  }
}

}  // namespace
}  // namespace turbobp

#include "core/ssd_buffer_table.h"

#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "common/rng.h"

namespace turbobp {
namespace {

TEST(SsdBufferTableTest, FreshTableIsAllFree) {
  SsdBufferTable t(10);
  EXPECT_EQ(t.capacity(), 10);
  EXPECT_EQ(t.used(), 0);
  EXPECT_EQ(t.Lookup(42), -1);
}

TEST(SsdBufferTableTest, PopFreeYieldsAllRecordsExactlyOnce) {
  SsdBufferTable t(16);
  std::set<int32_t> seen;
  for (int i = 0; i < 16; ++i) {
    const int32_t rec = t.PopFree();
    ASSERT_NE(rec, -1);
    EXPECT_TRUE(seen.insert(rec).second);
  }
  EXPECT_EQ(t.PopFree(), -1);
  EXPECT_EQ(t.used(), 16);
}

TEST(SsdBufferTableTest, HashInsertLookupRemove) {
  SsdBufferTable t(8);
  const int32_t rec = t.PopFree();
  t.record(rec).page_id = 1234;
  t.InsertHash(rec);
  EXPECT_EQ(t.Lookup(1234), rec);
  t.RemoveHash(rec);
  EXPECT_EQ(t.Lookup(1234), -1);
}

// The index is direct: sparse and large page ids grow it, ids past its end
// look up as absent, and a removed id can be re-inserted into another record.
TEST(SsdBufferTableTest, SparseAndLargeIdsGrowTheIndex) {
  SsdBufferTable t(8);
  const PageId ids[] = {5, 1000003, 3, 1 << 22, 0};
  std::unordered_map<PageId, int32_t> expect;
  for (const PageId pid : ids) {
    const int32_t rec = t.PopFree();
    ASSERT_NE(rec, -1);
    t.record(rec).page_id = pid;
    t.InsertHash(rec);
    expect[pid] = rec;
  }
  for (const auto& [pid, rec] : expect) EXPECT_EQ(t.Lookup(pid), rec);
  EXPECT_EQ(t.Lookup(4), -1);                // inside the index, unused
  EXPECT_EQ(t.Lookup((1 << 22) + 1), -1);    // just past its end
  EXPECT_EQ(t.Lookup(PageId{1} << 60), -1);  // far past its end
  EXPECT_EQ(t.Lookup(kInvalidPageId), -1);

  // Remove an id, then re-insert it into a different record.
  const int32_t old_rec = expect.at(1000003);
  t.RemoveHash(old_rec);
  EXPECT_EQ(t.Lookup(1000003), -1);
  EXPECT_EQ(t.Lookup(1 << 22), expect.at(1 << 22));
  const int32_t new_rec = t.PopFree();
  ASSERT_NE(new_rec, -1);
  t.record(new_rec).page_id = 1000003;
  t.InsertHash(new_rec);
  EXPECT_EQ(t.Lookup(1000003), new_rec);
}

TEST(SsdBufferTableTest, PushFreeResetsRecordAndRecycles) {
  SsdBufferTable t(4);
  const int32_t rec = t.PopFree();
  t.record(rec).page_id = 55;
  t.record(rec).state = SsdFrameState::kDirty;
  t.InsertHash(rec);
  t.RemoveHash(rec);
  t.PushFree(rec);
  EXPECT_EQ(t.used(), 0);
  EXPECT_EQ(t.record(rec).state, SsdFrameState::kFree);
  EXPECT_EQ(t.record(rec).page_id, kInvalidPageId);
  EXPECT_EQ(t.PopFree(), rec);  // LIFO free list
}

TEST(SsdBufferTableTest, Lru2KeyIsPenultimateAccess) {
  SsdFrameRecord r;
  EXPECT_EQ(r.Lru2Key(), 0);
  r.Touch(100);
  EXPECT_EQ(r.Lru2Key(), 0);  // only one access: -inf behaviour
  r.Touch(200);
  EXPECT_EQ(r.Lru2Key(), 100);
  r.Touch(300);
  EXPECT_EQ(r.Lru2Key(), 200);
}

// Randomized churn: the table's used() count, index and free list stay
// consistent under arbitrary insert/remove interleavings.
TEST(SsdBufferTableTest, RandomizedChurnStaysConsistent) {
  SsdBufferTable t(32);
  Rng rng(99);
  std::unordered_map<PageId, int32_t> live;
  for (int step = 0; step < 20000; ++step) {
    if (!live.empty() && (rng.Bernoulli(0.5) || t.used() == t.capacity())) {
      auto it = live.begin();
      std::advance(it, rng.Uniform(live.size()));
      t.RemoveHash(it->second);
      t.PushFree(it->second);
      live.erase(it);
    } else {
      const int32_t rec = t.PopFree();
      if (rec == -1) continue;
      PageId pid = rng.Uniform(1 << 20);
      while (live.contains(pid)) ++pid;
      t.record(rec).page_id = pid;
      t.InsertHash(rec);
      live[pid] = rec;
    }
    ASSERT_EQ(t.used(), static_cast<int32_t>(live.size()));
  }
  for (const auto& [pid, rec] : live) {
    ASSERT_EQ(t.Lookup(pid), rec);
  }
}

}  // namespace
}  // namespace turbobp

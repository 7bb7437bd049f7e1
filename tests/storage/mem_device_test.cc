#include "storage/mem_device.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

namespace turbobp {
namespace {

TEST(MemDeviceTest, ReadBackWhatWasWritten) {
  MemDevice dev(16, 512);
  std::vector<uint8_t> in(512, 0xAB), out(512);
  dev.Write(3, 1, in, 0);
  dev.Read(3, 1, out, 0);
  EXPECT_EQ(in, out);
}

TEST(MemDeviceTest, UnwrittenPagesAreZeroWithoutSynthesizer) {
  MemDevice dev(16, 512);
  std::vector<uint8_t> out(512, 0xFF);
  dev.Read(5, 1, out, 0);
  EXPECT_EQ(out, std::vector<uint8_t>(512, 0));
}

TEST(MemDeviceTest, SynthesizerMaterializesOnRead) {
  MemDevice dev(16, 512);
  dev.SetSynthesizer([](uint64_t page, std::span<uint8_t> out) {
    std::memset(out.data(), static_cast<int>(page), out.size());
  });
  std::vector<uint8_t> out(512);
  dev.Read(7, 1, out, 0);
  EXPECT_EQ(out, std::vector<uint8_t>(512, 7));
  // Reads do not materialize: only writes occupy memory.
  EXPECT_FALSE(dev.IsMaterialized(7));
}

TEST(MemDeviceTest, WrittenContentShadowsSynthesizer) {
  MemDevice dev(16, 512);
  dev.SetSynthesizer([](uint64_t, std::span<uint8_t> out) {
    std::memset(out.data(), 0xEE, out.size());
  });
  std::vector<uint8_t> in(512, 0x11), out(512);
  dev.Write(2, 1, in, 0);
  dev.Read(2, 1, out, 0);
  EXPECT_EQ(out, in);
  EXPECT_TRUE(dev.IsMaterialized(2));
}

TEST(MemDeviceTest, MultiPageTransfers) {
  MemDevice dev(16, 256);
  std::vector<uint8_t> in(4 * 256);
  for (size_t i = 0; i < in.size(); ++i) in[i] = static_cast<uint8_t>(i);
  dev.Write(4, 4, in, 0);
  std::vector<uint8_t> out(4 * 256);
  dev.Read(4, 4, out, 0);
  EXPECT_EQ(in, out);
  EXPECT_EQ(dev.materialized_pages(), 4u);
}

TEST(MemDeviceTest, ZeroServiceTime) {
  MemDevice dev(16, 256);
  std::vector<uint8_t> buf(256);
  EXPECT_EQ(dev.Read(0, 1, buf, 1234).time, 1234);
  EXPECT_EQ(dev.Write(0, 1, buf, 99).time, 99);
}

TEST(MemDeviceTest, ClearDropsContent) {
  MemDevice dev(16, 256);
  std::vector<uint8_t> in(256, 0x77), out(256);
  dev.Write(0, 1, in, 0);
  dev.Clear();
  EXPECT_EQ(dev.materialized_pages(), 0u);
  dev.Read(0, 1, out, 0);
  EXPECT_EQ(out, std::vector<uint8_t>(256, 0));
}

TEST(MemDeviceDeathTest, OutOfRangeAccessPanics) {
  MemDevice dev(4, 256);
  std::vector<uint8_t> buf(256);
  EXPECT_DEATH(dev.Read(4, 1, buf, 0), "num_pages");
  EXPECT_DEATH(dev.Write(3, 2, buf, 0), "");
}

// One page image per (page, tag): every byte is `tag + page`.
std::vector<uint8_t> Image(uint64_t page, uint8_t tag, uint32_t page_bytes) {
  return std::vector<uint8_t>(page_bytes, static_cast<uint8_t>(tag + page));
}

std::vector<uint8_t> ReadPage(MemDevice& dev, uint64_t page) {
  std::vector<uint8_t> out(dev.page_bytes());
  dev.Read(page, 1, out, 0);
  return out;
}

TEST(MemDeviceChunkTest, WriteAfterSnapshotLeavesSnapshotUnchanged) {
  MemDevice dev(200, 256);
  dev.Write(5, 1, Image(5, 1, 256), 0);
  dev.Write(70, 1, Image(70, 1, 256), 0);
  const MemDevice::Content snap = dev.SnapshotContent();
  dev.Write(5, 1, Image(5, 2, 256), 0);   // overwrite in a shared chunk
  dev.Write(6, 1, Image(6, 2, 256), 0);   // new page in a shared chunk
  dev.Write(150, 1, Image(150, 2, 256), 0);  // a chunk the snapshot lacks
  EXPECT_EQ(ReadPage(dev, 5), Image(5, 2, 256));

  MemDevice restored(200, 256);
  restored.RestoreContent(snap);
  EXPECT_EQ(ReadPage(restored, 5), Image(5, 1, 256));
  EXPECT_EQ(ReadPage(restored, 70), Image(70, 1, 256));
  EXPECT_FALSE(restored.IsMaterialized(6));
  EXPECT_FALSE(restored.IsMaterialized(150));
  EXPECT_EQ(restored.materialized_pages(), 2u);
  EXPECT_EQ(dev.materialized_pages(), 4u);
}

TEST(MemDeviceChunkTest, OneSnapshotRestoredTwiceStaysIndependent) {
  MemDevice src(128, 256);
  src.Write(10, 1, Image(10, 1, 256), 0);
  const MemDevice::Content snap = src.SnapshotContent();
  MemDevice a(128, 256), b(128, 256);
  a.RestoreContent(snap);
  b.RestoreContent(snap);
  a.Write(10, 1, Image(10, 2, 256), 0);
  b.Write(11, 1, Image(11, 3, 256), 0);
  EXPECT_EQ(ReadPage(a, 10), Image(10, 2, 256));
  EXPECT_FALSE(a.IsMaterialized(11));
  EXPECT_EQ(ReadPage(b, 10), Image(10, 1, 256));
  EXPECT_EQ(ReadPage(b, 11), Image(11, 3, 256));
  EXPECT_EQ(ReadPage(src, 10), Image(10, 1, 256));
  EXPECT_FALSE(src.IsMaterialized(11));
  // The snapshot itself still holds the original bytes.
  MemDevice c(128, 256);
  c.RestoreContent(snap);
  EXPECT_EQ(ReadPage(c, 10), Image(10, 1, 256));
  EXPECT_EQ(c.materialized_pages(), 1u);
}

TEST(MemDeviceChunkTest, MultiPageWriteSpansChunksIntoPartialLastChunk) {
  // 150 pages: chunks [0,64), [64,128) and a partial [128,150).
  constexpr uint64_t kPages = 150;
  static_assert(kPages % MemDevice::kChunkPages != 0);
  MemDevice dev(kPages, 128);
  constexpr uint64_t kFirst = 60;
  constexpr uint32_t kCount = kPages - kFirst;  // 60..149
  std::vector<uint8_t> in(static_cast<size_t>(kCount) * 128);
  for (size_t i = 0; i < in.size(); ++i) in[i] = static_cast<uint8_t>(i / 128);
  dev.Write(kFirst, kCount, in, 0);
  std::vector<uint8_t> out(in.size());
  dev.Read(kFirst, kCount, out, 0);
  EXPECT_EQ(out, in);
  EXPECT_EQ(dev.materialized_pages(), kCount);
  EXPECT_FALSE(dev.IsMaterialized(kFirst - 1));
  EXPECT_TRUE(dev.IsMaterialized(63));
  EXPECT_TRUE(dev.IsMaterialized(64));
  EXPECT_TRUE(dev.IsMaterialized(127));
  EXPECT_TRUE(dev.IsMaterialized(128));
  EXPECT_TRUE(dev.IsMaterialized(kPages - 1));
  // A read across the boundary mixes written and never-written pages.
  std::vector<uint8_t> mixed(8 * 128);
  dev.Read(56, 8, mixed, 0);
  for (size_t i = 0; i < 4 * 128; ++i) ASSERT_EQ(mixed[i], 0) << i;
  for (size_t i = 4 * 128; i < mixed.size(); ++i) {
    ASSERT_EQ(mixed[i], in[i - 4 * 128]) << i;
  }
}

TEST(MemDeviceChunkTest, MaterializedCountsAcrossChunkBoundaries) {
  MemDevice dev(3 * MemDevice::kChunkPages, 64);
  const std::vector<uint8_t> page(64, 0x5A);
  for (uint64_t p : {0u, 63u, 64u, 65u, 191u}) dev.Write(p, 1, page, 0);
  dev.Write(64, 1, page, 0);  // rewriting does not double-count
  EXPECT_EQ(dev.materialized_pages(), 5u);
  for (uint64_t p = 0; p < dev.num_pages(); ++p) {
    const bool written = p == 0 || p == 63 || p == 64 || p == 65 || p == 191;
    EXPECT_EQ(dev.IsMaterialized(p), written) << p;
  }
}

TEST(MemDeviceChunkTest, ClearAfterSnapshotLeavesSnapshotIntact) {
  MemDevice dev(64, 256);
  dev.Write(1, 1, Image(1, 9, 256), 0);
  const MemDevice::Content snap = dev.SnapshotContent();
  dev.Clear();
  EXPECT_EQ(dev.materialized_pages(), 0u);
  dev.RestoreContent(snap);
  EXPECT_EQ(ReadPage(dev, 1), Image(1, 9, 256));
}

TEST(MemDeviceChunkTest, EmptyContentWipesTheDevice) {
  MemDevice dev(64, 256);
  dev.Write(1, 1, Image(1, 9, 256), 0);
  dev.RestoreContent({});
  EXPECT_EQ(dev.materialized_pages(), 0u);
  EXPECT_EQ(ReadPage(dev, 1), std::vector<uint8_t>(256, 0));
}

TEST(MemDeviceDeathTest, RestoreChecksGeometry) {
  MemDevice src(64, 256);
  src.Write(0, 1, Image(0, 1, 256), 0);
  const MemDevice::Content snap = src.SnapshotContent();
  MemDevice other_size(128, 256);
  EXPECT_DEATH(other_size.RestoreContent(snap), "num_pages");
  MemDevice other_page(64, 512);
  EXPECT_DEATH(other_page.RestoreContent(snap), "page_bytes");
}

// One thread writes while another snapshots and checks each snapshot
// through private devices: every snapshot holds, for each page, one of the
// writer's whole images, and neither the writer's later writes nor writes
// to a device restored from it ever show through.
TEST(MemDeviceTest, ConcurrentSnapshotAndWrite) {
  constexpr uint64_t kPages = 3 * MemDevice::kChunkPages;
  constexpr uint32_t kBytes = 128;
  constexpr int kSnapshots = 200;
  MemDevice dev(kPages, kBytes);
  std::atomic<bool> stop{false};
  std::atomic<int> rounds{0};
  std::thread writer([&] {
    for (int round = 1; !stop.load(std::memory_order_acquire); ++round) {
      for (uint64_t p = 0; p < kPages; p += 7) {
        dev.Write(p, 1, Image(p, static_cast<uint8_t>(round), kBytes), 0);
      }
      rounds.store(round, std::memory_order_release);
    }
  });
  // Every snapshot overlaps the writer: it runs from before the first
  // until after the last. A failed assertion leaves the lambda, so the
  // writer is still stopped and joined.
  auto take_snapshots = [&] {
    std::vector<uint8_t> seen(kPages * kBytes);
    std::vector<uint8_t> again_seen(kPages * kBytes);
    while (rounds.load(std::memory_order_acquire) == 0) {
      std::this_thread::yield();
    }
    for (int i = 0; i < kSnapshots; ++i) {
      const MemDevice::Content snap = dev.SnapshotContent();
      MemDevice view(kPages, kBytes);
      view.RestoreContent(snap);
      view.Read(0, kPages, seen, 0);
      for (uint64_t p = 0; p < kPages; ++p) {
        const uint8_t* img = seen.data() + p * kBytes;
        if (p % 7 != 0) {
          ASSERT_FALSE(view.IsMaterialized(p));
          continue;
        }
        // A whole image: every byte agrees.
        ASSERT_EQ(std::vector<uint8_t>(img, img + kBytes),
                  std::vector<uint8_t>(kBytes, img[0]))
            << p;
      }
      view.Write(0, 1, Image(0, 0xEE, kBytes), 0);
      MemDevice again(kPages, kBytes);
      again.RestoreContent(snap);
      again.Read(0, kPages, again_seen, 0);
      ASSERT_EQ(again_seen, seen) << "snapshot " << i;
    }
  };
  take_snapshots();
  stop.store(true, std::memory_order_release);
  writer.join();
  const int last = rounds.load(std::memory_order_acquire);
  std::vector<uint8_t> out(kBytes);
  dev.Read(kPages - 3, 1, out, 0);  // 189 = 27 * 7: written every round
  EXPECT_EQ(out, Image(kPages - 3, static_cast<uint8_t>(last), kBytes));
}

}  // namespace
}  // namespace turbobp

#include "storage/disk_manager.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include "storage/file_device.h"
#include "storage/mem_device.h"
#include "storage/sim_device.h"

namespace turbobp {
namespace {

TEST(DiskManagerTest, BlockingReadAdvancesClientClock) {
  SimDevice dev(1 << 10, 8192, std::make_unique<HddModel>());
  DiskManager dm(&dev);
  IoContext ctx;
  std::vector<uint8_t> buf(8192);
  ASSERT_TRUE(dm.ReadPage(5, buf, ctx).ok());
  EXPECT_GT(ctx.now, Millis(5));  // paid a random-read seek
  EXPECT_EQ(dm.reads_issued(), 1);
  EXPECT_EQ(dm.pages_read(), 1);
}

TEST(DiskManagerTest, AsyncWriteLeavesClientClockAlone) {
  SimDevice dev(1 << 10, 8192, std::make_unique<HddModel>());
  DiskManager dm(&dev);
  IoContext ctx;
  std::vector<uint8_t> buf(8192);
  const IoResult completion = dm.WritePage(5, buf, ctx);
  ASSERT_TRUE(completion.ok());
  EXPECT_EQ(ctx.now, 0);
  EXPECT_GT(completion.time, Millis(5));
  EXPECT_EQ(dm.writes_issued(), 1);
}

TEST(DiskManagerTest, MultiPageReadIsOneRequest) {
  SimDevice dev(1 << 10, 8192, std::make_unique<HddModel>());
  DiskManager dm(&dev);
  IoContext ctx;
  std::vector<uint8_t> buf(8 * 8192);
  ASSERT_TRUE(dm.ReadPages(0, 8, buf, ctx).ok());
  EXPECT_EQ(dm.reads_issued(), 1);
  EXPECT_EQ(dm.pages_read(), 8);
  // One request = one seek, far cheaper than eight.
  EXPECT_LT(ctx.now, 2 * dev.EstimateReadTime(AccessKind::kRandom));
}

TEST(DiskManagerTest, MultiPageReadsCountVectoredRequestsNotPages) {
  SimDevice dev(1 << 10, 8192, std::make_unique<HddModel>());
  DiskManager dm(&dev);
  IoContext ctx;
  std::vector<uint8_t> one(8192);
  std::vector<uint8_t> many(8 * 8192);
  ASSERT_TRUE(dm.ReadPage(0, one, ctx).ok());       // single-page: not counted
  ASSERT_TRUE(dm.ReadPages(0, 8, many, ctx).ok());  // vectored: one increment
  ASSERT_TRUE(dm.ReadPages(8, 1, one, ctx).ok());   // n == 1: not vectored
  ASSERT_TRUE(dm.ReadPages(0, 4, many, ctx).ok());
  EXPECT_EQ(dm.multi_page_reads(), 2);
  EXPECT_EQ(dm.reads_issued(), 4);
  EXPECT_EQ(dm.pages_read(), 14);

  // Loader mode moves data without charging any counter.
  IoContext free_ctx;
  free_ctx.charge = false;
  ASSERT_TRUE(dm.ReadPages(0, 8, many, free_ctx).ok());
  EXPECT_EQ(dm.multi_page_reads(), 2);
}

TEST(DiskManagerTest, LoaderModeIsFree) {
  SimDevice dev(1 << 10, 8192, std::make_unique<HddModel>());
  DiskManager dm(&dev);
  IoContext ctx;
  ctx.charge = false;
  std::vector<uint8_t> buf(8192);
  ASSERT_TRUE(dm.ReadPage(1, buf, ctx).ok());
  ASSERT_TRUE(dm.WritePage(2, buf, ctx).ok());
  EXPECT_EQ(ctx.now, 0);
  EXPECT_EQ(dm.reads_issued(), 0);
  EXPECT_EQ(dm.writes_issued(), 0);
}

TEST(FileDeviceTest, CreateWriteReadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/turbobp_filedev_test.db";
  std::unique_ptr<FileDevice> dev;
  ASSERT_TRUE(FileDevice::Create(path, 16, 512, &dev).ok());
  EXPECT_EQ(dev->num_pages(), 16u);
  std::vector<uint8_t> in(512, 0x3C), out(512);
  dev->Write(7, 1, in, 0);
  dev->Read(7, 1, out, 0);
  EXPECT_EQ(in, out);
  ASSERT_TRUE(dev->Sync().ok());

  // Re-open and read the persisted content back.
  dev.reset();
  std::unique_ptr<FileDevice> reopened;
  ASSERT_TRUE(FileDevice::Open(path, 512, &reopened).ok());
  EXPECT_EQ(reopened->num_pages(), 16u);
  std::fill(out.begin(), out.end(), 0);
  reopened->Read(7, 1, out, 0);
  EXPECT_EQ(in, out);
  ::unlink(path.c_str());
}

TEST(FileDeviceTest, OpenMissingFileFails) {
  std::unique_ptr<FileDevice> dev;
  EXPECT_FALSE(FileDevice::Open("/nonexistent/nope.db", 512, &dev).ok());
}

}  // namespace
}  // namespace turbobp

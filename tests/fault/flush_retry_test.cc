// Checkpoint-drain retry discipline (DESIGN.md §12): when FlushAllDirty
// runs through the async I/O engine and one write fails with a transient
// EIO, the engine retries THAT request — it must not re-drain the whole
// dirty set, and no page may be written more than the engine's retry limit
// per drain. A coalesced batch that fails is split so the flaky page's
// neighbours are re-issued once, solo, not re-retried alongside it.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "buffer/buffer_pool.h"
#include "fault/fault_injecting_device.h"
#include "fault/fault_plan.h"
#include "io/async_io_engine.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "storage/sim_device.h"
#include "wal/log_manager.h"

namespace turbobp {
namespace {

constexpr uint32_t kPage = 512;

// Decorator counting device-level write attempts per page, including
// attempts the fault layer below will fail: what the retry-bound contract
// limits is wear (issues), not successes.
class WriteCountingDevice : public StorageDevice {
 public:
  explicit WriteCountingDevice(StorageDevice* base) : base_(base) {}

  uint64_t num_pages() const override { return base_->num_pages(); }
  uint32_t page_bytes() const override { return base_->page_bytes(); }

  IoResult Read(uint64_t first_page, uint32_t num_pages,
                std::span<uint8_t> out, Time now, bool charge) override {
    return base_->Read(first_page, num_pages, out, now, charge);
  }

  IoResult Write(uint64_t first_page, uint32_t num_pages,
                 std::span<const uint8_t> data, Time now,
                 bool charge) override {
    for (uint32_t i = 0; i < num_pages; ++i) ++writes_[first_page + i];
    return base_->Write(first_page, num_pages, data, now, charge);
  }

  int QueueLength(Time now) override { return base_->QueueLength(now); }
  Time EstimateReadTime(AccessKind kind) const override {
    return base_->EstimateReadTime(kind);
  }

  const std::map<uint64_t, int>& writes() const { return writes_; }

 private:
  StorageDevice* base_;
  std::map<uint64_t, int> writes_;
};

class FlushRetryTest : public ::testing::Test {
 protected:
  // Every disk I/O goes DiskManager -> counter -> fault -> disk: the
  // checkpoint drain through the manager's engine, the pool's miss reads
  // through its blocking path. The scripted fault-op indices below
  // therefore count the warm-up read too.
  void Build(const FaultPlan& plan) {
    disk_dev_ = std::make_unique<SimDevice>(
        256, kPage, std::make_unique<HddModel>(HddParams{.page_bytes = kPage}));
    disk_dev_->store().SetSynthesizer(
        [](uint64_t page, std::span<uint8_t> out) {
          PageView v(out.data(), kPage);
          v.Format(page, PageType::kRaw);
          v.SealChecksum();
        });
    log_dev_ = std::make_unique<SimDevice>(1 << 10, kPage,
                                           std::make_unique<HddModel>());
    fault_ = std::make_unique<FaultInjectingDevice>(disk_dev_.get(), plan);
    counter_ = std::make_unique<WriteCountingDevice>(fault_.get());
    // Queue depth 4: drain window = 8 pages.
    disk_ = std::make_unique<DiskManager>(counter_.get(), 4);
    log_ = std::make_unique<LogManager>(log_dev_.get());
    BufferPool::Options opts;
    opts.num_frames = 16;
    opts.page_bytes = kPage;
    pool_ = std::make_unique<BufferPool>(opts, disk_.get(), log_.get(),
                                         nullptr);
  }

  void DirtyPage(PageId pid, uint8_t value, IoContext& ctx) {
    PageGuard g = pool_->FetchPage(pid, AccessKind::kRandom, ctx);
    g.view().payload()[0] = value;
    g.LogUpdate(1, kPageHeaderSize, 1);
  }

  std::unique_ptr<SimDevice> disk_dev_;
  std::unique_ptr<SimDevice> log_dev_;
  std::unique_ptr<FaultInjectingDevice> fault_;
  std::unique_ptr<WriteCountingDevice> counter_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(FlushRetryTest, TransientEioRetriesThePageNotTheDrain) {
  // Op 0 at the fault device is the warm-up read: the first miss expands
  // to one 8-page read that brings in pages 0..7. The eight contiguous
  // dirty pages then drain as four solo writes (they fill the depth-4 ring
  // before anything stages) and one coalesced batch [4..7]: ops 1..4 solo,
  // op 5 the batch. Fail the batch (op 5) and then the first split
  // re-issue (op 6, page 4):
  //
  //   page 4:    batch + solo retry + solo retry = 3 writes (= retry limit)
  //   pages 5-7: batch + one solo re-issue       = 2 writes
  //   pages 0-3: untouched by the failure        = 1 write
  FaultPlan plan;
  plan.scripted[5] = FaultKind::kTransientError;
  plan.scripted[6] = FaultKind::kTransientError;
  Build(plan);

  IoContext ctx;
  for (PageId p = 0; p < 8; ++p) {
    DirtyPage(p, static_cast<uint8_t>(0x50 + p), ctx);
  }
  ASSERT_EQ(pool_->DirtyFrameCount(), 8);

  const Time done = pool_->FlushAllDirty(ctx, /*for_checkpoint=*/false);
  EXPECT_GT(done, ctx.now - 1);

  // Both scripted faults fired (guards the op-index bookkeeping above).
  ASSERT_EQ(fault_->fault_stats().transient_errors, 2);

  int max_writes = 0;
  int once = 0, twice = 0, thrice = 0;
  for (const auto& [pid, n] : counter_->writes()) {
    max_writes = std::max(max_writes, n);
    if (n == 1) ++once;
    if (n == 2) ++twice;
    if (n == 3) ++thrice;
  }
  // The hard bound: no page is ever written more than kRetryLimit times in
  // one drain, no matter how the faults land.
  EXPECT_LE(max_writes, AsyncIoEngine::kRetryLimit);
  // The shape: one flaky page re-retried, its three batch neighbours
  // re-issued exactly once, the other four untouched by the failure.
  EXPECT_EQ(thrice, 1);
  EXPECT_EQ(twice, 3);
  EXPECT_EQ(once, 4);

  const AsyncIoEngine::Stats s = disk_->io_engine().stats();
  EXPECT_EQ(s.retries, 5);  // 4 split re-issues + 1 solo retry
  EXPECT_EQ(s.errors, 0);
  EXPECT_EQ(s.completed, 8);

  // The drain succeeded: every frame is clean and every page's bytes are on
  // the disk despite the flaky run.
  EXPECT_EQ(pool_->DirtyFrameCount(), 0);
  std::vector<uint8_t> out(kPage);
  for (PageId p = 0; p < 8; ++p) {
    disk_dev_->store().Read(p, 1, out, 0);
    PageView v(out.data(), kPage);
    EXPECT_EQ(v.header().page_id, p);
    EXPECT_EQ(v.payload()[0], static_cast<uint8_t>(0x50 + p)) << "page " << p;
  }
}

TEST_F(FlushRetryTest, HealthyDrainWritesEveryPageExactlyOnce) {
  Build(FaultPlan::Healthy());
  IoContext ctx;
  for (PageId p = 0; p < 8; ++p) {
    DirtyPage(p, static_cast<uint8_t>(0x70 + p), ctx);
  }
  pool_->FlushAllDirty(ctx, /*for_checkpoint=*/false);
  EXPECT_EQ(pool_->DirtyFrameCount(), 0);
  ASSERT_EQ(counter_->writes().size(), 8u);
  for (const auto& [pid, n] : counter_->writes()) {
    EXPECT_EQ(n, 1) << "page " << pid;
  }
  EXPECT_EQ(disk_->io_engine().stats().retries, 0);
}

}  // namespace
}  // namespace turbobp

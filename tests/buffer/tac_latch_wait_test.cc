// Regression for the TAC latch-wait accounting (Section 2.5 pathology):
// while a pending SSD admission write holds a page's latch, ONLY a client
// touching that page is charged the wait — charged once, outside every pool
// latch, and the pool's total equals the sum of the per-client charges.
// (The over-counting bug this pins down: charging the wait while holding
// the pool-wide latch made unrelated clients queue behind it and the total
// drift above the per-client sum.)

#include <gtest/gtest.h>

#include <memory>

#include "buffer/buffer_pool.h"
#include "core/tac.h"
#include "sim/sim_executor.h"
#include "storage/page.h"
#include "storage/sim_device.h"
#include "wal/log_manager.h"

namespace turbobp {
namespace {

constexpr uint32_t kPage = 512;

TEST(TacLatchWaitTest, OnlyClientsTouchingTheBusyPagePay) {
  SimExecutor executor;
  SimDevice ssd_dev(64, kPage, std::make_unique<SsdModel>());
  SimDevice disk_dev(1 << 12, kPage, std::make_unique<HddModel>());
  disk_dev.store().SetSynthesizer([](uint64_t page, std::span<uint8_t> out) {
    PageView v(out.data(), kPage);
    v.Format(page, PageType::kRaw);
    v.SealChecksum();
  });
  MemDevice log_dev(1 << 10, kPage);
  DiskManager disk(&disk_dev);
  LogManager log(&log_dev);
  SsdCacheOptions sopts;
  sopts.num_frames = 32;
  sopts.num_partitions = 2;
  sopts.throttle_queue_limit = 1000;
  TacCache cache(&ssd_dev, &disk, sopts, &executor, /*db_pages=*/4096);
  BufferPool::Options opts;
  opts.num_frames = 16;
  opts.page_bytes = kPage;
  opts.expand_reads_until_warm = false;
  BufferPool pool(opts, &disk, &log, &cache);

  constexpr PageId kBusy = 5;
  constexpr PageId kOther = 300;

  // Client A misses: the disk read schedules TAC's delayed admission write.
  {
    IoContext ctx;
    ctx.executor = &executor;
    ctx.now = executor.now();
    pool.FetchPage(kBusy, AccessKind::kRandom, ctx);
  }
  // Let the admission commit fire: the SSD write is now in flight and the
  // page latch is registered busy until its completion.
  executor.RunUntilIdle();
  const Time t0 = executor.now();
  const Time busy_until = cache.LatchBusyUntil(kBusy, t0);
  ASSERT_GT(busy_until, t0) << "admission write should still be in flight";

  // Clients B and C hit the busy page at different instants; each pays
  // exactly the remaining window, measured after the hit's CPU charge.
  IoContext ctx_b;
  ctx_b.executor = &executor;
  ctx_b.now = t0;
  pool.FetchPage(kBusy, AccessKind::kRandom, ctx_b);
  const Time expected_b = busy_until - (t0 + BufferPool::kHitCpu);
  EXPECT_EQ(ctx_b.latch_wait, expected_b);
  EXPECT_EQ(ctx_b.now, busy_until);

  IoContext ctx_c;
  ctx_c.executor = &executor;
  ctx_c.now = t0 + Micros(3);
  pool.FetchPage(kBusy, AccessKind::kRandom, ctx_c);
  const Time expected_c = busy_until - (t0 + Micros(3) + BufferPool::kHitCpu);
  EXPECT_EQ(ctx_c.latch_wait, expected_c);

  // Client D touches a different page inside the window: no charge.
  IoContext ctx_d;
  ctx_d.executor = &executor;
  ctx_d.now = t0;
  pool.FetchPage(kOther, AccessKind::kRandom, ctx_d);
  EXPECT_EQ(ctx_d.latch_wait, 0);

  // The pool-wide total is exactly the two per-client charges.
  EXPECT_EQ(pool.stats().latch_wait_time, expected_b + expected_c);

  // Once the window has passed, the same page costs nothing.
  IoContext ctx_e;
  ctx_e.executor = &executor;
  ctx_e.now = busy_until + Micros(1);
  pool.FetchPage(kBusy, AccessKind::kRandom, ctx_e);
  EXPECT_EQ(ctx_e.latch_wait, 0);
  EXPECT_EQ(pool.stats().latch_wait_time, expected_b + expected_c);
}

}  // namespace
}  // namespace turbobp

// Group commit, the latch-free-iteration bugfix, and checkpoint-driven log
// truncation.
//
//  * ConcurrentAppendersWithSnapshotReader pins the records() race: before
//    the fix, a reader iterating the record vector while appenders grow it
//    dereferenced a reallocated buffer (TSan: heap-use-after-free /
//    data race). records_snapshot() copies under the latch instead; four
//    appender threads plus a spinning reader must come out clean.
//  * Group commit: concurrent CommitForce callers are batched by a leader —
//    followers park and the device sees far fewer writes than commits.
//  * TruncatePrefix bounds the buffered log: after a checkpoint the records
//    below its redo horizon are released, in every mode (the persistent SSD
//    cache included), while recovery and the torn-tail scan still see every
//    record that matters (they run on the retained suffix; the durable
//    device bytes are untouched).
// Runs under TSan in CI (tsan-stress job).

#include "wal/log_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "storage/mem_device.h"
#include "workload/tpcc.h"

namespace turbobp {
namespace {

constexpr uint32_t kPage = 512;

TEST(WalGroupCommitTest, ConcurrentAppendersWithSnapshotReader) {
  MemDevice log_dev(1 << 14, kPage);
  LogManager log(&log_dev);

  constexpr int kAppenders = 4;
  constexpr int kPerThread = 3000;
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::vector<LogRecord> records = log.records_snapshot();
      Lsn prev = 0;
      for (const LogRecord& rec : records) {
        ASSERT_GT(rec.lsn, prev);  // strictly increasing, no torn entries
        prev = rec.lsn;
      }
    }
  });

  std::vector<std::thread> appenders;
  for (int t = 0; t < kAppenders; ++t) {
    appenders.emplace_back([&, t] {
      IoContext ctx;  // real-thread mode: no executor
      for (int i = 0; i < kPerThread; ++i) {
        log.AppendUpdate(static_cast<uint64_t>(t) * kPerThread + i,
                      static_cast<PageId>(i % 64), 0, {});
        if (i % 64 == 63) log.CommitForce(ctx);
      }
    });
  }
  for (auto& th : appenders) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(log.num_records(), kAppenders * kPerThread);
  IoContext ctx;
  log.CommitForce(ctx);
  EXPECT_EQ(log.durable_lsn(), log.records_snapshot().back().lsn);
}

TEST(WalGroupCommitTest, LeaderBatchesFollowerFlushes) {
  MemDevice log_dev(1 << 14, kPage);
  LogManager log(&log_dev);

  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 400;
  // Follower-parking is a genuine concurrency event; one storm on an
  // otherwise idle machine can in principle serialize perfectly, so storm
  // repeatedly (bounded) until at least one commit overlapped a flush.
  int rounds = 0;
  while (log.flush_waits() == 0 && rounds < 20) {
    ++rounds;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        IoContext ctx;
        for (int i = 0; i < kCommitsPerThread; ++i) {
          log.AppendUpdate(static_cast<uint64_t>(t) << 32 | i,
                        static_cast<PageId>(t), 0, {});
          log.CommitForce(ctx);
        }
      });
    }
    for (auto& th : threads) th.join();
  }

  EXPECT_EQ(log.num_records(),
            static_cast<int64_t>(rounds) * kThreads * kCommitsPerThread);
  EXPECT_EQ(log.durable_lsn(), log.records_snapshot().back().lsn);
  // Batching evidence: followers parked behind an in-flight batch instead
  // of issuing their own device write. With 8 threads committing
  // back-to-back this must happen many times; zero waits would mean every
  // commit did its own write.
  EXPECT_GT(log.flush_waits(), 0);
}

// ------------------------------------------------------- truncation tests

// Runs once with a cold-restart SSD cache and once with the persistent one,
// whose warm restart judges the journal against the same retained log.
class WalTruncationModeTest : public ::testing::TestWithParam<bool> {};

TEST_P(WalTruncationModeTest, CheckpointsBoundBufferedRecords) {
  // A full system running TPC-C with periodic checkpoints must not retain
  // the whole logical log in memory: each completed checkpoint releases the
  // buffered records below its redo horizon.
  TpccConfig tpcc;
  tpcc.warehouses = 2;
  tpcc.row_scale = 0.01;
  tpcc.seed = 11;
  SystemConfig config;
  config.page_bytes = 1024;
  config.db_pages = TpccWorkload::EstimateDbPages(tpcc, 1024);
  config.bp_frames = config.db_pages / 4;
  config.ssd_frames = static_cast<int64_t>(config.db_pages / 2);
  config.design = SsdDesign::kLazyCleaning;
  config.persistent_ssd_cache = GetParam();
  DbSystem system(config);
  Database db(&system);
  TpccWorkload::Populate(&db, tpcc);
  TpccWorkload workload(&db, tpcc);

  IoContext ctx = system.MakeContext();
  int64_t peak_retained = 0;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 400; ++i) {
      workload.RunTransaction(0, ctx);
      system.executor().RunUntil(ctx.now);
    }
    peak_retained = std::max(
        peak_retained, static_cast<int64_t>(system.log().retained_records()));
    system.checkpoint().RunCheckpoint(ctx);
    system.executor().RunUntil(ctx.now);
  }

  // The checkpoints truncated: the buffered suffix is (much) smaller than
  // the logical log, and bounded by what one round appends rather than the
  // whole run.
  EXPECT_GT(system.log().records_truncated(), 0);
  EXPECT_LT(static_cast<int64_t>(system.log().retained_records()),
            system.log().num_records());
  EXPECT_LE(static_cast<int64_t>(system.log().retained_records()),
            peak_retained);

  // Recovery still works off the retained suffix + durable device bytes:
  // run past the last checkpoint (so redo has work), crash, recover, and
  // the database must replay to a consistent state.
  for (int i = 0; i < 200; ++i) {
    workload.RunTransaction(0, ctx);
    system.executor().RunUntil(ctx.now);
  }
  system.Crash();
  IoContext rctx = system.MakeContext(/*charge=*/false);
  const RecoveryStats rstats = system.Recover(rctx);
  EXPECT_GT(rstats.records_applied + rstats.records_skipped_lsn, 0);
  HeapFile district = HeapFile::Attach(&db, "district");
  int64_t delta = 0;
  const int64_t init_next = workload.initial_orders_per_district() + 1;
  for (uint64_t dk = 0; dk < district.row_count(); ++dk) {
    struct {
      uint64_t d_key;
      uint64_t next_o_id;
      int64_t ytd_cents;
      char pad[72];
    } row;
    district.Read(district.RidOfRow(dk),
                  {reinterpret_cast<uint8_t*>(&row), sizeof(row)},
                  AccessKind::kSequential, rctx);
    ASSERT_EQ(row.d_key, dk);
    delta += static_cast<int64_t>(row.next_o_id) - init_next;
  }
  // Redo recovered every committed NewOrder's district bump.
  EXPECT_EQ(delta, workload.new_orders());
}

INSTANTIATE_TEST_SUITE_P(SsdCache, WalTruncationModeTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "persistent" : "cold";
                         });

TEST(WalTruncationTest, TruncateKeepsTornTailDetectionCorrect) {
  // Truncation drops only records at/below the redo horizon that are
  // durable; the torn-tail scan operates on the retained suffix and must
  // keep finding the crash frontier.
  MemDevice log_dev(1 << 12, kPage);
  LogManager log(&log_dev);
  IoContext ctx;
  for (int i = 0; i < 50; ++i) {
    log.AppendUpdate(static_cast<uint64_t>(i), static_cast<PageId>(i % 8), 0, {});
  }
  log.CommitForce(ctx);  // all 50 durable
  const std::vector<LogRecord> before = log.records_snapshot();
  ASSERT_EQ(before.size(), 50u);
  const Lsn horizon = before[30].lsn;  // keep the newest 20 records
  const Lsn durable_before = log.durable_lsn();
  log.TruncatePrefix(horizon);

  EXPECT_EQ(log.records_truncated(), 30);
  EXPECT_EQ(log.retained_records(), 20u);
  EXPECT_EQ(log.num_records(), 50);              // logical count unaffected
  EXPECT_EQ(log.durable_lsn(), durable_before);  // durability unaffected

  // Appends continue with monotone LSNs after truncation.
  const Lsn appended = log.AppendUpdate(1234, 3, 0, {});
  log.CommitForce(ctx);
  EXPECT_EQ(log.durable_lsn(), appended);
  const auto records = log.records_snapshot();
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.front().lsn, horizon);
  EXPECT_EQ(records.back().lsn, appended);

  // Un-flushed records above the horizon survive a crash-drop cycle with
  // the same semantics as before truncation.
  log.AppendUpdate(5678, 4, 0, {});
  log.DropUnflushed();  // crash: the un-forced record is lost
  EXPECT_EQ(log.durable_lsn(), appended);
  EXPECT_EQ(log.records_snapshot().back().lsn, appended);
}

TEST(WalTruncationTest, TruncateAllRecordsThenAppend) {
  MemDevice log_dev(1 << 12, kPage);
  LogManager log(&log_dev);
  IoContext ctx;
  for (int i = 0; i < 10; ++i) {
    log.AppendUpdate(static_cast<uint64_t>(i), 0, 0, {});
  }
  log.CommitForce(ctx);
  log.TruncatePrefix(log.current_lsn());  // everything is below the horizon
  EXPECT_EQ(log.retained_records(), 0u);
  EXPECT_EQ(log.num_records(), 10);

  const Lsn appended = log.AppendUpdate(42, 1, 0, {});
  log.CommitForce(ctx);
  EXPECT_EQ(log.durable_lsn(), appended);
  EXPECT_EQ(log.records_snapshot().back().lsn, appended);
}

}  // namespace
}  // namespace turbobp

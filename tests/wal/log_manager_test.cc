#include "wal/log_manager.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/checksum.h"
#include "common/rng.h"
#include "storage/sim_device.h"

namespace turbobp {
namespace {

class LogManagerTest : public ::testing::Test {
 protected:
  LogManagerTest()
      : dev_(1 << 12, 1024, std::make_unique<HddModel>()), log_(&dev_) {}

  SimDevice dev_;
  LogManager log_;
};

TEST_F(LogManagerTest, LsnsAreMonotonic) {
  std::vector<uint8_t> bytes(10, 1);
  const Lsn a = log_.AppendUpdate(1, 5, 0, bytes);
  const Lsn b = log_.AppendUpdate(1, 6, 0, bytes);
  const Lsn c = log_.AppendCommit(1);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(log_.num_records(), 3);
}

TEST_F(LogManagerTest, NothingDurableBeforeFlush) {
  std::vector<uint8_t> bytes(10, 1);
  const Lsn a = log_.AppendUpdate(1, 5, 0, bytes);
  EXPECT_FALSE(log_.IsDurable(a));
  IoContext ctx;
  log_.FlushTo(a, ctx);
  EXPECT_TRUE(log_.IsDurable(a));
}

TEST_F(LogManagerTest, FlushChargesLogDeviceSequentially) {
  std::vector<uint8_t> bytes(100, 1);
  for (int i = 0; i < 50; ++i) log_.AppendUpdate(1, 5, 0, bytes);
  IoContext ctx;
  const Time done = log_.FlushTo(log_.current_lsn(), ctx);
  EXPECT_GT(done, 0);
  EXPECT_EQ(log_.flushes_issued(), 1);  // one group write
  // Writing the same LSN range again is a no-op.
  EXPECT_EQ(log_.FlushTo(log_.current_lsn(), ctx), ctx.now);
  EXPECT_EQ(log_.flushes_issued(), 1);
}

TEST_F(LogManagerTest, CommitForceBlocksClient) {
  std::vector<uint8_t> bytes(100, 1);
  log_.AppendUpdate(1, 5, 0, bytes);
  IoContext ctx;
  log_.CommitForce(ctx);
  EXPECT_GT(ctx.now, 0);
  EXPECT_TRUE(log_.IsDurable(log_.records_snapshot().back().lsn));
}

TEST_F(LogManagerTest, SecondFlushIsSequentialNotSeek) {
  std::vector<uint8_t> bytes(100, 1);
  log_.AppendUpdate(1, 5, 0, bytes);
  IoContext ctx;
  const Time first = log_.FlushTo(log_.current_lsn(), ctx);
  log_.AppendUpdate(1, 6, 0, bytes);
  ctx.now = first;
  const Time second_done = log_.FlushTo(log_.current_lsn(), ctx) - first;
  // The first flush pays the positioning cost; the second streams.
  EXPECT_LT(second_done, first / 2);
}

TEST_F(LogManagerTest, DropUnflushedTruncatesTail) {
  std::vector<uint8_t> bytes(10, 1);
  log_.AppendUpdate(1, 5, 0, bytes);
  log_.AppendCommit(1);
  IoContext ctx;
  log_.CommitForce(ctx);
  log_.AppendUpdate(1, 6, 0, bytes);
  log_.AppendUpdate(1, 7, 0, bytes);
  EXPECT_EQ(log_.DropUnflushed(), 2u);
  EXPECT_EQ(log_.num_records(), 2);  // update + commit survive
}

TEST_F(LogManagerTest, LoaderModeFlushIsFree) {
  std::vector<uint8_t> bytes(10, 1);
  log_.AppendUpdate(1, 5, 0, bytes);
  IoContext ctx;
  ctx.charge = false;
  EXPECT_EQ(log_.FlushTo(log_.current_lsn(), ctx), 0);
  EXPECT_EQ(log_.flushes_issued(), 0);
  EXPECT_TRUE(log_.IsDurable(log_.records_snapshot().back().lsn));
}

TEST_F(LogManagerTest, UpdatePayloadPreserved) {
  std::vector<uint8_t> bytes = {9, 8, 7};
  log_.AppendUpdate(3, 55, 123, bytes);
  const auto records = log_.records_snapshot();
  const LogRecord& rec = records.back();
  EXPECT_EQ(rec.txn_id, 3u);
  EXPECT_EQ(rec.page_id, 55u);
  EXPECT_EQ(rec.offset, 123u);
  EXPECT_EQ(rec.bytes, bytes);
  EXPECT_EQ(rec.type, LogRecordType::kUpdate);
}

TEST_F(LogManagerTest, CheckpointRecordTypes) {
  log_.AppendBeginCheckpoint();
  log_.AppendEndCheckpoint();
  const auto records = log_.records_snapshot();
  EXPECT_EQ(records[0].type, LogRecordType::kBeginCheckpoint);
  EXPECT_EQ(records[1].type, LogRecordType::kEndCheckpoint);
}

TEST_F(LogManagerTest, RecordChecksumsSealAtAppendAndCatchCorruption) {
  std::vector<uint8_t> bytes = {1, 2, 3, 4};
  log_.AppendUpdate(1, 5, 0, bytes);
  LogRecord rec = log_.records_snapshot().back();
  EXPECT_TRUE(rec.VerifyChecksum());
  rec.bytes[2] = static_cast<uint8_t>(rec.bytes[2] ^ 0x40);
  EXPECT_FALSE(rec.VerifyChecksum());  // body damage
  rec.bytes[2] = static_cast<uint8_t>(rec.bytes[2] ^ 0x40);
  EXPECT_TRUE(rec.VerifyChecksum());
  rec.page_id = 6;
  EXPECT_FALSE(rec.VerifyChecksum());  // header damage
}

// The record checksum is one CRC over the packed header fields, chained
// into one over the payload. That is the same byte sequence as one call per
// field, so sealed records keep the values they had under that form.
TEST(LogRecordChecksumTest, MatchesOneCallPerField) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    LogRecord rec;
    rec.lsn = rng.Next();
    rec.type = static_cast<LogRecordType>(rng.Uniform(4));
    rec.txn_id = rng.Next();
    rec.page_id = rng.Next();
    rec.offset = static_cast<uint32_t>(rng.Next());
    rec.bytes.resize(i % 5 == 0 ? 0 : rng.Uniform(1100));
    for (auto& b : rec.bytes) b = static_cast<uint8_t>(rng.Next());

    uint32_t crc = Crc32c(&rec.lsn, sizeof(rec.lsn));
    const auto type_byte = static_cast<uint8_t>(rec.type);
    crc = Crc32c(&type_byte, sizeof(type_byte), crc);
    crc = Crc32c(&rec.txn_id, sizeof(rec.txn_id), crc);
    crc = Crc32c(&rec.page_id, sizeof(rec.page_id), crc);
    crc = Crc32c(&rec.offset, sizeof(rec.offset), crc);
    crc = Crc32c(rec.bytes.data(), rec.bytes.size(), crc);
    ASSERT_EQ(rec.ComputeChecksum(), crc) << "record " << i;
  }
}

TEST_F(LogManagerTest, TruncateTornTailIsNoopOnCleanDurableLog) {
  std::vector<uint8_t> bytes(10, 1);
  log_.AppendUpdate(1, 5, 0, bytes);
  log_.AppendCommit(1);
  IoContext ctx;
  log_.CommitForce(ctx);
  EXPECT_EQ(log_.TruncateTornTail(), 0u);
  EXPECT_EQ(log_.num_records(), 2);
  // A non-durable append never reached the device; replay must not see it,
  // so truncation drops it exactly like a crash (DropUnflushed) would.
  log_.AppendUpdate(1, 6, 0, bytes);
  EXPECT_EQ(log_.TruncateTornTail(), 1u);
  EXPECT_EQ(log_.num_records(), 2);
}

TEST_F(LogManagerTest, TruncateTornTailDropsCorruptRecordAndSuffix) {
  std::vector<uint8_t> bytes(10, 1);
  for (int i = 0; i < 4; ++i) log_.AppendUpdate(1, 5 + i, 0, bytes);
  IoContext ctx;
  log_.FlushTo(log_.current_lsn(), ctx);
  // Model a torn log block: record 2's body was only partially written but
  // the device acked the flush, so its stored checksum is stale.
  std::vector<LogRecord> records = log_.records_snapshot();
  records[2].bytes[0] = static_cast<uint8_t>(records[2].bytes[0] ^ 0xFF);
  const Lsn torn_lsn = records[2].lsn;
  LogManager replay(&dev_);  // a restart reading the log device back
  replay.RestoreDurableState(records, log_.durable_lsn());
  EXPECT_EQ(replay.TruncateTornTail(), 2u);  // torn record and its suffix
  EXPECT_EQ(replay.num_records(), 2);
  EXPECT_EQ(replay.durable_lsn(), replay.records_snapshot().back().lsn);
  // Appends reuse the reclaimed LSN space, as a real log rewrite would.
  EXPECT_EQ(replay.AppendUpdate(9, 9, 0, bytes), torn_lsn);
}

}  // namespace
}  // namespace turbobp

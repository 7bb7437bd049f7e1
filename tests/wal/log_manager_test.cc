#include "wal/log_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/checksum.h"
#include "common/rng.h"
#include "storage/mem_device.h"
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
  LogManager::CrashSnapshot snap = log_.SnapshotForCrash();
  const Lsn torn_lsn = log_.records_snapshot()[2].lsn;
  snap.records.FlipByte(torn_lsn + kLogHeaderBytes, 0xFF);
  LogManager replay(&dev_);  // a restart reading the log device back
  replay.RestoreDurableState(snap.records, snap.durable_lsn);
  EXPECT_EQ(replay.TruncateTornTail(), 2u);  // torn record and its suffix
  EXPECT_EQ(replay.num_records(), 2);
  EXPECT_EQ(replay.durable_lsn(), replay.records_snapshot().back().lsn);
  // Appends reuse the reclaimed LSN space, as a real log rewrite would.
  EXPECT_EQ(replay.AppendUpdate(9, 9, 0, bytes), torn_lsn);
}

std::vector<LogRecord> Decoded(const LogBuffer& log) {
  std::vector<LogRecord> out;
  for (const LogRecordView rec : log) out.push_back(rec.ToRecord());
  return out;
}

// Seeded byte-mutation fuzzing of the record parser. A forced log of random
// records (payloads from empty to whole-page images, spread over several
// segments) has bytes overwritten anywhere, in length fields and on segment
// boundaries included; replay must cut it at the first damaged record and
// keep every record before the cut byte for byte. A length that
// runs past its segment or past a page is torn, not a CHECK failure, and
// nothing reads outside the segments (the crash-torture job runs this
// under ASan and UBSan).
TEST(LogParserFuzzTest, MutatedBytesAreCutAsTornTail) {
  constexpr uint32_t kPageBytes = 1024;
  MemDevice dev(1 << 12, kPageBytes);
  LogManager log(&dev);
  Rng rng(11);
  std::vector<uint8_t> payload(kPageBytes);
  while (log.current_lsn() < 5 * LogBuffer::kSegmentBytes / 2) {
    switch (rng.Uniform(4)) {
      case 0:
      case 1: {
        const uint32_t len = static_cast<uint32_t>(
            rng.Uniform(3) == 0 ? kPageBytes : rng.Uniform(kPageBytes / 4));
        const auto offset =
            static_cast<uint32_t>(rng.Uniform(kPageBytes - len + 1));
        for (uint32_t i = 0; i < len; ++i) {
          payload[i] = static_cast<uint8_t>(rng.Next());
        }
        log.AppendUpdate(rng.Next(), rng.Uniform(1 << 20), offset,
                         std::span<const uint8_t>(payload.data(), len));
        break;
      }
      case 2:
        log.AppendCommit(rng.Next());
        break;
      default:
        log.AppendBeginCheckpoint();
        log.AppendEndCheckpoint();
    }
  }
  IoContext ctx;
  log.CommitForce(ctx);
  const std::vector<LogRecord> appended = log.records_snapshot();
  const LogManager::CrashSnapshot snap = log.SnapshotForCrash();
  const auto extents = snap.records.segment_extents();
  ASSERT_GE(extents.size(), 3u);
  // Index of the record holding the byte at `lsn`.
  auto record_of = [&](Lsn lsn) {
    const auto it = std::upper_bound(
        appended.begin(), appended.end(), lsn,
        [](Lsn l, const LogRecord& rec) { return l < rec.lsn; });
    return static_cast<size_t>(it - appended.begin()) - 1;
  };

  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng r(seed);
    LogBuffer bytes = snap.records;
    size_t first_damaged = appended.size();
    const int flips = 1 + static_cast<int>(r.Uniform(3));
    for (int f = 0; f < flips; ++f) {
      const auto& [first, end] = extents[r.Uniform(extents.size())];
      Lsn at = 0;
      switch (r.Uniform(3)) {
        case 0:  // anywhere
          at = first + r.Uniform(end - first);
          break;
        case 1:  // a length field (header bytes 29-31)
          at = appended[r.Uniform(appended.size())].lsn + 29 + r.Uniform(3);
          break;
        default:  // the first or last byte of a segment
          at = r.Uniform(2) == 0 ? first : end - 1;
      }
      bytes.FlipByte(at, static_cast<uint8_t>(1 + r.Uniform(255)));
      first_damaged = std::min(first_damaged, record_of(at));
    }
    LogManager replay(&dev);
    replay.RestoreDurableState(bytes, snap.durable_lsn);
    replay.TruncateTornTail();
    const std::vector<LogRecord> survivors = replay.records_snapshot();
    // The cut lands exactly at the first damaged record.
    ASSERT_EQ(survivors.size(), first_damaged) << "seed " << seed;
    for (size_t i = 0; i < survivors.size(); ++i) {
      ASSERT_EQ(survivors[i], appended[i])
          << "seed " << seed << " record " << i;
    }
    EXPECT_EQ(replay.num_records(), static_cast<int64_t>(survivors.size()));
    EXPECT_EQ(replay.TruncateTornTail(), 0u) << "seed " << seed;
  }
  // The mutations went to copies: the log itself is intact.
  EXPECT_EQ(Decoded(snap.records), appended);
}

// Restarts from one capture share its segments. Each restored log cuts its
// tail and appends its own records; no log may write into a segment another
// one (or the capture) still reads.
TEST(LogCopyOnWriteTest, RestoredLogsNeverWriteSharedSegments) {
  MemDevice dev(1 << 12, 1024);
  LogManager log(&dev);
  IoContext ctx;
  const std::vector<uint8_t> bytes(100, 1);
  for (PageId pid = 0; pid < 5; ++pid) log.AppendUpdate(1, pid, 0, bytes);
  log.CommitForce(ctx);
  log.AppendUpdate(2, 10, 0, bytes);  // the unforced tail
  log.AppendUpdate(2, 11, 0, bytes);
  const LogManager::CrashSnapshot cap = log.SnapshotForCrash();
  const std::vector<LogRecord> captured = Decoded(cap.records);
  ASSERT_EQ(captured.size(), 7u);
  // The live log keeps appending into the tail segment the capture shares.
  log.AppendUpdate(3, 12, 0, bytes);

  // a and b reclaim the unforced tail's LSNs, c keeps them unused.
  LogManager a(&dev);
  LogManager b(&dev);
  LogManager c(&dev);
  for (LogManager* restored : {&a, &b, &c}) {
    restored->RestoreDurableState(cap.records, cap.durable_lsn);
  }
  EXPECT_EQ(a.TruncateTornTail(), 2u);
  EXPECT_EQ(b.TruncateTornTail(), 2u);
  EXPECT_EQ(c.DropUnflushed(), 2u);
  const std::vector<uint8_t> a_bytes(100, 0xaa);
  const std::vector<uint8_t> b_bytes(60, 0xbb);
  const std::vector<uint8_t> c_bytes(30, 0xcc);
  EXPECT_EQ(a.AppendUpdate(4, 20, 0, a_bytes), captured[5].lsn);
  EXPECT_EQ(b.AppendUpdate(5, 21, 0, b_bytes), captured[5].lsn);
  c.AppendUpdate(6, 22, 0, c_bytes);
  a.AppendCommit(4);

  const std::vector<LogRecord> durable(captured.begin(), captured.begin() + 5);
  auto expect_log = [&](LogManager& restored, std::vector<LogRecord> tail,
                        const char* name) {
    std::vector<LogRecord> want = durable;
    want.insert(want.end(), tail.begin(), tail.end());
    const std::vector<LogRecord> got = restored.records_snapshot();
    ASSERT_EQ(got.size(), want.size()) << name;
    for (size_t i = 0; i < want.size(); ++i) {
      if (i >= durable.size()) want[i].lsn = got[i].lsn;
      want[i].SealChecksum();
      EXPECT_EQ(got[i], want[i]) << name << " record " << i;
    }
  };
  auto record = [](LogRecordType type, uint64_t txn, PageId pid,
                   const std::vector<uint8_t>& payload) {
    LogRecord rec;
    rec.type = type;
    rec.txn_id = txn;
    rec.page_id = pid;
    rec.bytes = payload;
    return rec;
  };
  constexpr LogRecordType kUpdate = LogRecordType::kUpdate;
  expect_log(a,
             {record(kUpdate, 4, 20, a_bytes),
              record(LogRecordType::kCommit, 4, kInvalidPageId, {})},
             "a");
  expect_log(b, {record(kUpdate, 5, 21, b_bytes)}, "b");
  expect_log(c, {record(kUpdate, 6, 22, c_bytes)}, "c");
  EXPECT_EQ(Decoded(cap.records), captured);
  const std::vector<LogRecord> live = log.records_snapshot();
  ASSERT_EQ(live.size(), 8u);
  EXPECT_EQ(std::vector<LogRecord>(live.begin(), live.begin() + 7), captured);
}

}  // namespace
}  // namespace turbobp

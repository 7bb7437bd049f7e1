// Unit tests for the SSD metadata journal: round-trip through
// snapshot+append, torn-tail truncation at the exact CRC-invalid page,
// epoch supersession and fallback when the newest seal is destroyed, a
// full-region single-page corruption sweep — no damaged page may ever make
// recovery invent a mapping that was never staged — and a CRC-resealed
// mutation fuzz, after which a compaction must still be what the next
// recovery adopts.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "common/checksum.h"
#include "common/rng.h"
#include "core/ssd_metadata_journal.h"
#include "fault/fault_injecting_device.h"
#include "fault/fault_plan.h"
#include "storage/io_context.h"
#include "storage/mem_device.h"

namespace turbobp {
namespace {

constexpr uint32_t kPageBytes = 512;
constexpr int64_t kFrames = 32;
// Offset of the stored CRC inside the 32-byte journal page header: flipping
// it invalidates the page while magic/kind/epoch stay readable (the torn
// shape recovery classifies as a tail, not as end-of-log residue).
constexpr uint32_t kCrcOffset = 24;
// The rest of the header: magic u32 @0, kind u32 @4, epoch u64 @8,
// index u32 @16, used u32 @20, crc u32 @24, reserved u32 @28.
constexpr uint32_t kHeaderBytes = 32;
constexpr uint32_t kEpochOffset = 8;
constexpr uint32_t kUsedOffset = 20;

// Recomputes a journal page's CRC over its header and `used` payload bytes,
// so a mutated page passes the checksum and reaches the parser. A page whose
// `used` overruns the page cannot be made valid and is left as it is.
void Reseal(std::vector<uint8_t>& page) {
  uint32_t used = 0;
  std::memcpy(&used, page.data() + kUsedOffset, 4);
  if (used > kPageBytes - kHeaderBytes) return;
  std::memset(page.data() + kCrcOffset, 0, 4);
  const uint32_t crc = Crc32c(page.data() + kHeaderBytes, used,
                              Crc32c(page.data(), kHeaderBytes));
  std::memcpy(page.data() + kCrcOffset, &crc, 4);
}

class SsdMetadataJournalTest : public ::testing::Test {
 protected:
  SsdMetadataJournalTest()
      : region_pages_(
            SsdMetadataJournal::RegionPagesFor(kFrames, kPageBytes)),
        dev_(static_cast<uint64_t>(kFrames) + region_pages_, kPageBytes) {}

  std::unique_ptr<SsdMetadataJournal> MakeJournal() {
    return MakeJournalOn(&dev_);
  }

  std::unique_ptr<SsdMetadataJournal> MakeJournalOn(StorageDevice* dev) {
    return std::make_unique<SsdMetadataJournal>(
        dev, static_cast<uint64_t>(kFrames), region_pages_, [this] {
          std::vector<SsdMetadataJournal::Record> out;
          for (const auto& [frame, e] : table_) {
            SsdMetadataJournal::Record r;
            r.frame = frame;
            r.page_id = e.page_id;
            r.page_lsn = e.page_lsn;
            r.dirty = e.dirty;
            out.push_back(r);
          }
          return out;
        });
  }

  void Put(SsdMetadataJournal& j, uint64_t frame, PageId pid, Lsn lsn,
           bool dirty) {
    table_[frame] = SsdMetadataJournal::RecoveredEntry{pid, lsn, dirty};
    history_[frame].push_back(table_[frame]);
    j.NotePut(frame, pid, lsn, dirty);
  }

  void Erase(SsdMetadataJournal& j, uint64_t frame) {
    table_.erase(frame);
    j.NoteErase(frame);
  }

  // Writes a CRC-valid seal page for `epoch` naming no snapshot pages.
  void PlantSeal(uint64_t page, uint64_t epoch) {
    std::vector<uint8_t> buf(kPageBytes, 0);
    const uint32_t magic = 0x4A504254;  // "TBPJ"
    const uint32_t kind = 1;            // seal
    const uint32_t used = 16;           // the seal payload, all zero
    std::memcpy(buf.data(), &magic, 4);
    std::memcpy(buf.data() + 4, &kind, 4);
    std::memcpy(buf.data() + kEpochOffset, &epoch, 8);
    std::memcpy(buf.data() + kUsedOffset, &used, 4);
    Reseal(buf);
    dev_.Write(page, 1, buf, /*now=*/0, /*charge=*/false);
  }

  void FlipByte(uint64_t page, uint32_t offset) {
    std::vector<uint8_t> buf(kPageBytes);
    dev_.Read(page, 1, buf, /*now=*/0, /*charge=*/false);
    buf[offset] ^= 0xFF;
    dev_.Write(page, 1, buf, /*now=*/0, /*charge=*/false);
  }

  // The live table and the recovered image must agree exactly.
  void ExpectMatchesTable(
      const SsdMetadataJournal::RecoveredState& st,
      const std::map<uint64_t, SsdMetadataJournal::RecoveredEntry>& want) {
    EXPECT_EQ(st.entries.size(), want.size());
    for (const auto& [frame, e] : want) {
      const auto it = st.entries.find(frame);
      ASSERT_NE(it, st.entries.end()) << "frame " << frame << " missing";
      EXPECT_EQ(it->second.page_id, e.page_id) << "frame " << frame;
      EXPECT_EQ(it->second.page_lsn, e.page_lsn) << "frame " << frame;
      EXPECT_EQ(it->second.dirty, e.dirty) << "frame " << frame;
    }
  }

  uint32_t region_pages_;
  MemDevice dev_;
  IoContext ctx_;
  std::map<uint64_t, SsdMetadataJournal::RecoveredEntry> table_;
  std::map<uint64_t, std::vector<SsdMetadataJournal::RecoveredEntry>>
      history_;
};

TEST_F(SsdMetadataJournalTest, EmptyRegionRecoversInvalid) {
  auto j = MakeJournal();
  const auto st = j->Recover(ctx_);
  EXPECT_FALSE(st.valid);
  EXPECT_TRUE(st.incomplete());
  EXPECT_TRUE(st.entries.empty());
}

TEST_F(SsdMetadataJournalTest, RoundTripPutsErasesAndOverwrites) {
  auto j = MakeJournal();
  Put(*j, 0, 100, 10, false);
  Put(*j, 1, 101, 11, true);
  Put(*j, 2, 102, 12, false);
  EXPECT_TRUE(j->Maintain(ctx_, /*force=*/true).ok());
  // Mutations after the first seal ride the append area.
  Erase(*j, 2);
  Put(*j, 1, 101, 25, false);  // overwrite: cleaner marked it clean at LSN 25
  Put(*j, 3, 103, 13, true);
  EXPECT_TRUE(j->Maintain(ctx_, /*force=*/true).ok());

  auto j2 = MakeJournal();
  const auto st = j2->Recover(ctx_);
  EXPECT_TRUE(st.valid);
  EXPECT_FALSE(st.incomplete());
  ExpectMatchesTable(st, table_);
}

TEST_F(SsdMetadataJournalTest, CompactionFoldsAppendsIntoNewEpoch) {
  auto j = MakeJournal();
  Put(*j, 4, 200, 20, false);
  EXPECT_TRUE(j->Maintain(ctx_, /*force=*/true).ok());
  Put(*j, 5, 201, 21, true);
  EXPECT_TRUE(j->Maintain(ctx_, /*force=*/true).ok());
  const int64_t before = j->compactions();
  EXPECT_TRUE(j->Compact(ctx_).ok());
  EXPECT_EQ(j->compactions(), before + 1);

  auto j2 = MakeJournal();
  const auto st = j2->Recover(ctx_);
  EXPECT_TRUE(st.valid);
  EXPECT_EQ(st.append_records, 0u);  // everything folded into the snapshot
  ExpectMatchesTable(st, table_);
}

TEST_F(SsdMetadataJournalTest, TornAppendPageTruncatesTheScanExactlyThere) {
  auto j = MakeJournal();
  EXPECT_TRUE(j->Maintain(ctx_, /*force=*/true).ok());  // opens epoch 1
  const uint32_t per_page = j->records_per_page();
  // Two full append pages plus a partial tail.
  const uint32_t total = 2 * per_page + 3;
  for (uint32_t i = 0; i < total; ++i) {
    Put(*j, i, 300 + i, 30 + i, (i % 3) == 0);
  }
  EXPECT_TRUE(j->Maintain(ctx_, /*force=*/true).ok());

  // Sanity: undamaged recovery sees everything.
  {
    auto j2 = MakeJournal();
    const auto st = j2->Recover(ctx_);
    ASSERT_TRUE(st.valid);
    EXPECT_FALSE(st.incomplete());
    ASSERT_EQ(st.append_pages, 3u);
    ExpectMatchesTable(st, table_);
  }

  // Corrupt the CRC of the *second* append page: the scan must stop there,
  // keeping page one's records and losing pages two and three — a prefix,
  // never a gap.
  {
    auto probe = MakeJournal();
    const auto st = probe->Recover(ctx_);
    FlipByte(probe->AppendBaseOf(st.half) + 1, kCrcOffset);
  }
  auto j3 = MakeJournal();
  const auto st = j3->Recover(ctx_);
  EXPECT_TRUE(st.valid);
  EXPECT_TRUE(st.torn_tail);
  EXPECT_TRUE(st.incomplete());
  EXPECT_EQ(st.append_pages, 1u);
  EXPECT_EQ(st.entries.size(), per_page);
  for (uint32_t i = 0; i < per_page; ++i) {
    const auto it = st.entries.find(i);
    ASSERT_NE(it, st.entries.end());
    EXPECT_EQ(it->second.page_id, 300 + i);
  }
}

TEST_F(SsdMetadataJournalTest, DestroyedSealFallsBackToThePreviousEpoch) {
  auto j = MakeJournal();
  Put(*j, 6, 400, 40, false);
  Put(*j, 7, 401, 41, true);
  EXPECT_TRUE(j->Compact(ctx_).ok());  // epoch 1
  const auto epoch1_table = table_;
  Put(*j, 8, 402, 42, false);
  Put(*j, 7, 401, 50, false);
  EXPECT_TRUE(j->Compact(ctx_).ok());  // epoch 2, other half

  // Destroy epoch 2's seal: publish-then-seal means epoch 1 must become
  // authoritative again, flagged as a fallback so the cache lazy-scans for
  // the newer frames the stale journal cannot name.
  {
    auto probe = MakeJournal();
    const auto st = probe->Recover(ctx_);
    ASSERT_TRUE(st.valid);
    ASSERT_EQ(st.epoch, 2u);
    FlipByte(probe->SealPageOf(st.half), kCrcOffset);
  }
  auto j2 = MakeJournal();
  const auto st = j2->Recover(ctx_);
  EXPECT_TRUE(st.valid);
  EXPECT_EQ(st.epoch, 1u);
  EXPECT_TRUE(st.fell_back);
  EXPECT_TRUE(st.incomplete());
  ExpectMatchesTable(st, epoch1_table);

  // A compaction after the fallback must supersede the damaged epoch 2,
  // never reuse it: epochs stay strictly increasing.
  EXPECT_TRUE(j2->Compact(ctx_).ok());
  auto j3 = MakeJournal();
  const auto st3 = j3->Recover(ctx_);
  EXPECT_TRUE(st3.valid);
  EXPECT_GE(st3.epoch, 3u);
}

// Flip one byte in every region page in turn. Whatever breaks, recovery may
// lose warmth but must never fabricate: every recovered mapping must be one
// the workload actually staged for that frame at some point.
TEST_F(SsdMetadataJournalTest, SinglePageCorruptionNeverFabricatesMappings) {
  auto j = MakeJournal();
  Put(*j, 0, 500, 60, false);
  Put(*j, 1, 501, 61, true);
  EXPECT_TRUE(j->Compact(ctx_).ok());
  Put(*j, 2, 502, 62, false);
  Put(*j, 1, 501, 70, false);
  EXPECT_TRUE(j->Maintain(ctx_, /*force=*/true).ok());
  Put(*j, 3, 503, 63, true);
  EXPECT_TRUE(j->Compact(ctx_).ok());
  Put(*j, 4, 504, 64, false);
  EXPECT_TRUE(j->Maintain(ctx_, /*force=*/true).ok());

  const auto pristine = dev_.SnapshotContent();
  const uint64_t base = j->region_base();
  for (uint32_t p = 0; p < region_pages_; ++p) {
    for (const uint32_t offset : {kCrcOffset, 8u, kPageBytes - 1}) {
      dev_.RestoreContent(pristine);
      FlipByte(base + p, offset);
      auto jr = MakeJournal();
      const auto st = jr->Recover(ctx_);
      for (const auto& [frame, e] : st.entries) {
        const auto it = history_.find(frame);
        ASSERT_NE(it, history_.end())
            << "page " << p << " offset " << offset
            << ": recovered a frame never journaled: " << frame;
        bool seen = false;
        for (const auto& h : it->second) {
          seen |= h.page_id == e.page_id && h.page_lsn == e.page_lsn &&
                  h.dirty == e.dirty;
        }
        EXPECT_TRUE(seen) << "page " << p << " offset " << offset
                          << ": fabricated mapping for frame " << frame;
      }
    }
  }
}

// The fault-injected sweep the journal must survive by construction: every
// journal write rides a device that silently tears 10% of writes, and
// recovery reads ride a device that flips a bit in 5% of reads. Across
// seeds, recovery may fall back (older epoch, truncated tail, nothing at
// all) but must never fabricate a mapping the workload did not stage.
TEST_F(SsdMetadataJournalTest, FaultInjectedWriteAndRecoverySweep) {
  const auto pristine = dev_.SnapshotContent();
  int64_t total_torn = 0;
  int64_t total_flips = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    dev_.RestoreContent(pristine);
    table_.clear();
    history_.clear();

    FaultPlan write_plan;
    write_plan.seed = seed;
    write_plan.torn_write_rate = 0.10;
    FaultInjectingDevice write_dev(&dev_, write_plan);
    auto j = MakeJournalOn(&write_dev);
    for (uint32_t i = 0; i < 40; ++i) {
      Put(*j, i % 16, 600 + i, 80 + i, (i % 4) == 0);
      if (i % 16 == 7) (void)j->Maintain(ctx_, /*force=*/true);
      if (i % 16 == 15) (void)j->Compact(ctx_);
    }
    (void)j->Maintain(ctx_, /*force=*/true);
    total_torn += write_dev.fault_stats().torn_writes;

    FaultPlan read_plan;
    read_plan.seed = seed * 977 + 1;
    read_plan.bit_flip_rate = 0.05;
    FaultInjectingDevice read_dev(&dev_, read_plan);
    auto jr = MakeJournalOn(&read_dev);
    const auto st = jr->Recover(ctx_);
    total_flips += read_dev.fault_stats().bit_flips;
    for (const auto& [frame, e] : st.entries) {
      const auto it = history_.find(frame);
      ASSERT_NE(it, history_.end())
          << "seed " << seed << ": recovered a frame never journaled: "
          << frame;
      bool seen = false;
      for (const auto& h : it->second) {
        seen |= h.page_id == e.page_id && h.page_lsn == e.page_lsn &&
                h.dirty == e.dirty;
      }
      EXPECT_TRUE(seen) << "seed " << seed
                        << ": fabricated mapping for frame " << frame;
    }
  }
  // The sweep must have actually exercised both fault kinds.
  EXPECT_GT(total_torn, 0);
  EXPECT_GT(total_flips, 0);
}

// A CRC-valid seal can still carry a forged epoch. At 2^64-1 it must not be
// adopted: the next compaction would seal epoch 0, which every later
// recovery ranks below the forged seal, so the journal would be lost for
// good. A valid page at kMaxEpoch itself (no later epoch could supersede it)
// makes the compaction restart the sequence instead.
TEST_F(SsdMetadataJournalTest, ForgedEpochDoesNotPoisonLaterCompactions) {
  {
    auto j = MakeJournal();
    Put(*j, 0, 700, 90, false);
    EXPECT_TRUE(j->Compact(ctx_).ok());  // epoch 1, half 1
    Put(*j, 1, 701, 91, true);
    EXPECT_TRUE(j->Compact(ctx_).ok());  // epoch 2, half 0
  }
  const auto pristine = dev_.SnapshotContent();
  const auto pristine_table = table_;
  struct Case {
    uint64_t forged;
    uint64_t adopted_first;   // epoch the first recovery adopts
    uint64_t adopted_second;  // the compaction's epoch
  };
  constexpr uint64_t kMax = SsdMetadataJournal::kMaxEpoch;
  for (const Case c : {Case{~uint64_t{0}, 2, 3}, Case{kMax + 1, 2, 3},
                       Case{kMax, kMax, 1}}) {
    dev_.RestoreContent(pristine);
    table_ = pristine_table;
    auto probe = MakeJournal();
    PlantSeal(probe->SealPageOf(static_cast<int>(c.forged % 2)), c.forged);

    auto j1 = MakeJournal();
    const auto st1 = j1->Recover(ctx_);
    EXPECT_TRUE(st1.valid) << c.forged;
    EXPECT_EQ(st1.epoch, c.adopted_first) << c.forged;
    Put(*j1, 2, 702, 92, false);
    ASSERT_TRUE(j1->Compact(ctx_).ok()) << c.forged;

    auto j2 = MakeJournal();
    const auto st2 = j2->Recover(ctx_);
    EXPECT_TRUE(st2.valid) << c.forged;
    EXPECT_EQ(st2.epoch, c.adopted_second) << c.forged;
    EXPECT_FALSE(st2.fell_back) << c.forged;
    ExpectMatchesTable(st2, table_);
  }
}

// Seeded byte-mutation fuzz over the whole region: header and record bytes
// of 1-4 pages are overwritten and each page's CRC is recomputed, so the
// parser, not the checksum, meets the damage; some mutations set an epoch
// to the values around kMaxEpoch. Recovery may adopt anything the resealed
// bytes say, but it must not crash, and a compaction after it must be what
// the next recovery adopts: valid, no fallback, exactly the live table.
TEST_F(SsdMetadataJournalTest, ResealedByteMutationFuzz) {
  {
    auto j = MakeJournal();
    Put(*j, 0, 800, 60, false);
    Put(*j, 1, 801, 61, true);
    EXPECT_TRUE(j->Compact(ctx_).ok());
    Put(*j, 2, 802, 62, false);
    Put(*j, 1, 801, 70, false);
    EXPECT_TRUE(j->Compact(ctx_).ok());
    for (uint64_t f = 3; f < 3 + 2 * j->records_per_page(); ++f) {
      Put(*j, f % kFrames, 810 + f, 80 + f, (f % 3) == 0);
    }
    EXPECT_TRUE(j->Maintain(ctx_, /*force=*/true).ok());
  }
  const auto pristine = dev_.SnapshotContent();
  const auto pristine_table = table_;
  constexpr uint64_t kMax = SsdMetadataJournal::kMaxEpoch;
  const uint64_t special_epochs[] = {kMax - 1, kMax, kMax + 1, ~uint64_t{0}};
  Rng rng(29);
  std::vector<uint8_t> buf(kPageBytes);
  for (int iter = 0; iter < 600; ++iter) {
    dev_.RestoreContent(pristine);
    table_ = pristine_table;
    const uint64_t base = static_cast<uint64_t>(kFrames);
    const uint64_t mutations = 1 + rng.Uniform(4);
    for (uint64_t m = 0; m < mutations; ++m) {
      const uint64_t page = base + rng.Uniform(region_pages_);
      dev_.Read(page, 1, buf, /*now=*/0, /*charge=*/false);
      const uint64_t what = rng.Uniform(8);
      if (what == 0) {
        const uint64_t e = special_epochs[rng.Uniform(4)];
        std::memcpy(buf.data() + kEpochOffset, &e, 8);
      } else if (what < 4) {
        // A header byte other than the CRC (recomputed below).
        uint64_t off = rng.Uniform(kHeaderBytes - 4);
        if (off >= kCrcOffset) off += 4;
        buf[off] = static_cast<uint8_t>(rng.Next());
      } else {
        buf[kHeaderBytes + rng.Uniform(kPageBytes - kHeaderBytes)] =
            static_cast<uint8_t>(rng.Next());
      }
      Reseal(buf);
      dev_.Write(page, 1, buf, /*now=*/0, /*charge=*/false);
    }

    auto j1 = MakeJournal();
    (void)j1->Recover(ctx_);
    // A mapping only the live table knows: the next recovery finds it only
    // if it adopts this compaction's snapshot.
    Put(*j1, kFrames - 1, 900 + static_cast<PageId>(iter), 1000 + iter,
        (iter % 2) == 0);
    ASSERT_TRUE(j1->Compact(ctx_).ok()) << "iter " << iter;

    auto j2 = MakeJournal();
    const auto st2 = j2->Recover(ctx_);
    ASSERT_TRUE(st2.valid) << "iter " << iter;
    EXPECT_FALSE(st2.fell_back) << "iter " << iter;
    EXPECT_EQ(st2.append_records, 0u) << "iter " << iter;
    ExpectMatchesTable(st2, table_);
    if (::testing::Test::HasFailure()) {
      FAIL() << "first failing iteration " << iter;
    }
  }
}

TEST_F(SsdMetadataJournalTest, RegionGeometryTilesTwoHalves) {
  auto j = MakeJournal();
  EXPECT_EQ(j->region_pages() % 2, 0u);
  EXPECT_EQ(j->SealPageOf(0), j->region_base());
  EXPECT_EQ(j->SealPageOf(1), j->region_base() + j->region_pages() / 2);
  EXPECT_EQ(j->AppendBaseOf(0) + j->append_page_capacity(), j->SealPageOf(1));
  EXPECT_EQ(j->AppendBaseOf(1) + j->append_page_capacity(),
            j->region_base() + j->region_pages());
  // The snapshot area of one half must hold the full frame table.
  EXPECT_GE(static_cast<uint64_t>(j->snapshot_page_capacity()) *
                j->records_per_page(),
            static_cast<uint64_t>(kFrames));
}

}  // namespace
}  // namespace turbobp

#include "fault/crash_harness.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "common/status.h"
#include "core/ssd_cache_base.h"
#include "core/ssd_metadata_journal.h"
#include "debug/invariant_auditor.h"
#include "engine/bplus_tree.h"
#include "engine/database.h"
#include "engine/heap_file.h"
#include "fault/crash_point.h"
#include "storage/page.h"
#include "storage/striped_array.h"

namespace turbobp {
namespace {

// The top of the data volume is reserved for the oracle's raw slot pages;
// the heap table and the B+-tree grow from the bottom and must never reach
// it (checked after every allocating operation).
constexpr uint64_t kSlotRegionPages = 64;
constexpr uint32_t kHeapRowBytes = 40;
constexpr uint64_t kHeapCapacityRows = 700;
constexpr int kBtreePreloadKeys = 56;  // near-fills leaves so inserts split

constexpr char kEndPoint[] = "end-of-workload";
constexpr char kRedoPoint[] = "recovery/redo-apply";

SystemConfig MakeConfig(const CrashHarnessOptions& o) {
  SystemConfig config;
  config.page_bytes = o.page_bytes;
  config.db_pages = o.db_pages;
  config.bp_frames = o.bp_frames;
  config.ssd_frames = o.ssd_frames;
  config.design = o.design;
  config.ssd_options.num_partitions = 2;
  config.ssd_options.lc_dirty_fraction = 0.6;
  config.ssd_options.lc_group_pages = 4;
  config.persistent_ssd_cache = o.persistent_ssd;
  return config;
}

// The durable state a power cut at one crash instant leaves behind: the
// disk array's platter contents plus the log's records and durable horizon.
// In the classic designs the SSD is deliberately absent — every design
// reformats it at restart (paper, Section 6), which DbSystem's construction
// models. In persistent mode the SSD device content (frame area plus the
// metadata-journal region) survives the cut and is captured too.
struct CrashCapture {
  std::string point;
  int hit = 0;
  StripedDiskArray::Content disk;
  LogManager::CrashSnapshot log;
  bool has_ssd = false;
  std::unordered_map<uint64_t, std::vector<uint8_t>> ssd;
};

// Captures crash snapshots at requested (point, hit) pairs. OnCrashPoint
// runs synchronously inside the engine, possibly with latches held: it only
// touches the lock-free LogManager::SnapshotForCrash and the device-class
// latches (ordered after every engine latch), and never re-enters the
// engine.
class SnapshotObserver : public CrashPointObserver {
 public:
  explicit SnapshotObserver(DbSystem* system, bool snapshot_ssd = false)
      : system_(system), snapshot_ssd_(snapshot_ssd) {}

  void Request(const std::string& point, int hit) {
    requests_[point].insert(hit);
  }
  void set_capture_first_hits(bool v) { capture_first_hits_ = v; }

  const std::map<std::string, int>& hits() const { return hits_; }
  std::map<std::pair<std::string, int>, CrashCapture>& captures() {
    return captures_;
  }
  const CrashCapture* Find(const std::string& point, int hit) const {
    auto it = captures_.find({point, hit});
    return it == captures_.end() ? nullptr : &it->second;
  }

  // Quiescent capture (no crash point involved), used for the
  // end-of-workload pseudo-point.
  void CaptureNow(const char* name, int hit) { Store(name, hit); }

  void OnCrashPoint(const char* name) override {
    const int n = ++hits_[name];
    bool want = capture_first_hits_ && n == 1;
    if (!want) {
      auto it = requests_.find(name);
      want = it != requests_.end() && it->second.contains(n);
    }
    if (want) Store(name, n);
  }

 private:
  void Store(const char* name, int n) {
    CrashCapture cap;
    cap.point = name;
    cap.hit = n;
    cap.disk = system_->disk_array().SnapshotContent();
    cap.log = system_->log().SnapshotForCrash();
    if (snapshot_ssd_ && system_->ssd_device() != nullptr) {
      cap.has_ssd = true;
      cap.ssd = system_->ssd_device()->SnapshotContent();
    }
    captures_[{cap.point, n}] = std::move(cap);
  }

  DbSystem* system_;
  bool snapshot_ssd_ = false;
  bool capture_first_hits_ = false;
  std::map<std::string, int> hits_;
  std::map<std::string, std::set<int>> requests_;
  std::map<std::pair<std::string, int>, CrashCapture> captures_;
};

struct OracleWrite {
  Lsn lsn = kInvalidLsn;  // LSN of the update record that wrote the value
  uint32_t value = 0;
};

// One seeded workload execution plus everything needed to judge any crash
// instant within it.
struct WorkloadRun {
  Catalog catalog;  // as of setup; table extents never move afterwards
  std::map<std::pair<PageId, uint32_t>, std::vector<OracleWrite>> oracle;
  std::map<std::string, int> hits;
  std::map<std::pair<std::string, int>, CrashCapture> captures;
};

void Sync(DbSystem& system, IoContext& ctx) {
  system.executor().RunUntil(ctx.now);
  ctx.now = std::max(ctx.now, system.executor().now());
}

// Reads one SSD device page, XORs `mask` into the byte at `offset` and
// writes the page back — the damaged-but-present image a torn write or a
// decayed cell leaves behind. Uncharged: the mutation models medium damage,
// not I/O traffic.
void FlipDeviceByte(StorageDevice* dev, uint64_t page, uint32_t offset,
                    uint8_t mask) {
  std::vector<uint8_t> buf(dev->page_bytes());
  dev->Read(page, 1, buf, /*now=*/0, /*charge=*/false);
  buf[offset] ^= mask;
  dev->Write(page, 1, buf, /*now=*/0, /*charge=*/false);
}

// Drives the self-healing machinery mid-workload so its crash points fire
// while the observer is armed: corrupts one clean in-service SSD frame and
// lets a scrub tick quarantine-and-repair it (content-neutral — the disk
// copy is identical), then degrades partition 0 and advances virtual time
// past the error and quiet windows so the next tick's canary probe
// re-enables it. Deterministic: depends only on the op index and the
// (seeded) cache state, never on which captures were requested.
void ExerciseSelfHealing(DbSystem& system, IoContext& ctx) {
  auto* cache = dynamic_cast<SsdCacheBase*>(&system.ssd_manager());
  if (cache == nullptr || cache->degraded()) return;
  Sync(system, ctx);
  StorageDevice* dev = system.ssd_device();
  if (dev != nullptr) {
    for (const auto& e : cache->SnapshotForCheckpoint()) {
      if (e.dirty) continue;
      // Payload corruption: the header stays legible but the checksum
      // fails, so the patrol must quarantine the frame and re-seed the page
      // from its disk copy ("ssd/scrub-repair").
      FlipDeviceByte(dev, e.frame, dev->page_bytes() / 2, 0xFF);
      cache->ScrubTick(ctx);
      break;
    }
  }
  cache->DegradePartitionAt(0, ctx);
  // Let the degrade-time error budget lapse and the quiet window pass; the
  // canary probe then re-enables the partition ("ssd/canary-write",
  // "ssd/reenable").
  ctx.now += cache->options().error_window + cache->options().quiet_window;
  Sync(system, ctx);
  cache->ScrubTick(ctx);
}

void WriteSlot(DbSystem& system, WorkloadRun& run, PageId pid, uint32_t slot,
               uint32_t value, uint64_t txn, bool commit, IoContext& ctx) {
  {
    PageGuard g =
        system.buffer_pool().FetchPage(pid, AccessKind::kRandom, ctx);
    // next_lsn before the append is exactly the LSN the record receives;
    // nothing else appends between here and LogUpdate (single-threaded run).
    const Lsn lsn = system.log().current_lsn();
    std::memcpy(g.view().payload() + 4 * slot, &value, 4);
    g.LogUpdate(txn, kPageHeaderSize + 4 * slot, 4);
    run.oracle[{pid, slot}].push_back({lsn, value});
  }
  if (commit) {
    system.log().AppendCommit(txn);
    system.log().CommitForce(ctx);
  }
}

// Runs the mixed workload once. `requests` / `capture_first_hits` drive the
// observer; `capture_end` additionally snapshots the quiescent end state
// (maximal redo tail, used by the idempotence sweep).
WorkloadRun RunWorkload(const CrashHarnessOptions& o,
                        const std::map<std::string, std::set<int>>& requests,
                        bool capture_first_hits, bool capture_end) {
  WorkloadRun run;
  DbSystem system(MakeConfig(o));
  Database db(&system);
  if (o.break_lc_checkpoint) {
    system.checkpoint().set_skip_ssd_flush_for_test(true);
  }
  IoContext ctx = system.MakeContext();

  // Setup (not subject to crashes): a heap table, and a B+-tree pre-loaded
  // to near-full leaves so workload inserts trigger splits. One group
  // commit makes the setup durable.
  HeapFile heap = HeapFile::Create(&db, "torture_rows", kHeapRowBytes,
                                   kHeapCapacityRows);
  BPlusTree tree = BPlusTree::Create(&db, "torture_idx", ctx);
  uint64_t next_txn = 1;
  for (int i = 0; i < kBtreePreloadKeys; ++i) {
    tree.Insert(static_cast<uint64_t>(i + 1) * 1000,
                static_cast<uint64_t>(i), next_txn, ctx);
  }
  system.log().AppendCommit(next_txn);
  system.log().CommitForce(ctx);
  ++next_txn;
  Sync(system, ctx);
  run.catalog = db.catalog();

  const PageId slot_first = o.db_pages - kSlotRegionPages;
  TURBOBP_CHECK(run.catalog.next_free_page + 8 <= slot_first);
  const uint32_t slots_per_page = (o.page_bytes - kPageHeaderSize) / 4;

  SnapshotObserver obs(&system, o.persistent_ssd);
  for (const auto& [point, hit_set] : requests) {
    for (int hit : hit_set) obs.Request(point, hit);
  }
  obs.set_capture_first_hits(capture_first_hits);

  Rng rng(o.seed * 7919 + static_cast<uint64_t>(o.design));
  uint32_t counter = 0;
  uint64_t heap_rows = 0;
  uint64_t tree_values = 0;
  {
    ScopedCrashArm arm(&obs);
    for (int i = 0; i < o.num_ops; ++i) {
      if (o.checkpoint_every > 0 && i > 0 && i % o.checkpoint_every == 0) {
        Sync(system, ctx);
        const Time end = system.checkpoint().RunCheckpoint(ctx);
        ctx.now = std::max(ctx.now, end);
      }
      if (o.exercise_healing && i == o.num_ops / 2) {
        ExerciseSelfHealing(system, ctx);
      }
      const uint64_t r = rng.Uniform(100);
      if (r < 50) {
        WriteSlot(system, run,
                  slot_first + rng.Uniform(kSlotRegionPages),
                  static_cast<uint32_t>(rng.Uniform(slots_per_page)),
                  ++counter, next_txn++, /*commit=*/true, ctx);
      } else if (r < 64) {
        // Logged but never forced: the crash-tail case. A later group
        // commit can still make it durable — the oracle keys on LSNs, not
        // on commit intent, which is exact under redo-only recovery.
        WriteSlot(system, run,
                  slot_first + rng.Uniform(kSlotRegionPages),
                  static_cast<uint32_t>(rng.Uniform(slots_per_page)),
                  ++counter, next_txn++, /*commit=*/false, ctx);
      } else if (r < 72 || (r < 78 && heap_rows == 0)) {
        std::vector<uint8_t> row(kHeapRowBytes);
        for (size_t j = 0; j < row.size(); ++j) {
          row[j] = static_cast<uint8_t>(heap_rows + j);
        }
        heap.Append(row, next_txn, ctx);
        ++heap_rows;
        if (rng.Bernoulli(0.5)) {
          system.log().AppendCommit(next_txn);
          system.log().CommitForce(ctx);
        }
        ++next_txn;
      } else if (r < 78) {
        std::vector<uint8_t> row(kHeapRowBytes);
        for (size_t j = 0; j < row.size(); ++j) {
          row[j] = static_cast<uint8_t>(counter + j);
        }
        heap.Update(heap.RidOfRow(rng.Uniform(heap_rows)), row, next_txn,
                    ctx);
        if (rng.Bernoulli(0.5)) {
          system.log().AppendCommit(next_txn);
          system.log().CommitForce(ctx);
        }
        ++next_txn;
      } else if (r < 86) {
        // Lands between the pre-loaded keys, so near-full leaves split.
        tree.Insert(1 + rng.Uniform(kBtreePreloadKeys * 1000), ++tree_values,
                    next_txn, ctx);
        TURBOBP_CHECK(db.catalog().next_free_page <= slot_first);
        if (rng.Bernoulli(0.5)) {
          system.log().AppendCommit(next_txn);
          system.log().CommitForce(ctx);
        }
        ++next_txn;
      } else {
        // Read-only fetch: drives SSD admissions and hits.
        PageGuard g = system.buffer_pool().FetchPage(
            slot_first + rng.Uniform(kSlotRegionPages), AccessKind::kRandom,
            ctx);
      }
      if (i % 4 == 3) Sync(system, ctx);
    }
    Sync(system, ctx);
    if (capture_end) obs.CaptureNow(kEndPoint, 1);
  }
  run.hits = obs.hits();
  run.captures = std::move(obs.captures());
  return run;
}

struct RecoveredDb {
  std::unique_ptr<DbSystem> system;
  std::unique_ptr<Database> db;
  RecoveryStats stats;
  PersistentRestoreStats pstats;
  bool torn_injected = false;
  bool ssd_fault_armed = false;
};

// Damages the restored SSD image per `fault`, after the log's durable state
// is already in place (the frame-corruption fault prefers a frame whose
// journal entry survives the horizon filter, so recovery must actually
// verify and drop it rather than discard it earlier). Returns true when the
// fault found something to damage.
bool ApplyRestartFault(DbSystem* sys, const CrashHarnessOptions& o,
                       SsdRestartFault fault) {
  if (fault == SsdRestartFault::kClean) return true;
  StorageDevice* dev = sys->ssd_device();
  // A throwaway journal over the same region reads the on-device state so
  // the mutation can aim at the exact page recovery will depend on.
  SsdMetadataJournal probe(
      dev, static_cast<uint64_t>(o.ssd_frames),
      SsdMetadataJournal::RegionPagesFor(o.ssd_frames, o.page_bytes),
      [] { return std::vector<SsdMetadataJournal::Record>(); });
  IoContext tmp = sys->MakeContext(/*charge=*/false);
  const SsdMetadataJournal::RecoveredState jr = probe.Recover(tmp);
  const int half = jr.valid ? jr.half : 0;
  switch (fault) {
    case SsdRestartFault::kClean:
      return true;
    case SsdRestartFault::kTornJournalTail: {
      // Corrupt the last consumed append page — or materialize garbage in
      // the first append slot when the epoch has none, the page an
      // interrupted first append would have left half-written.
      const uint64_t page =
          jr.append_pages > 0
              ? probe.AppendBaseOf(half) + jr.append_pages - 1
              : probe.AppendBaseOf(half);
      if (jr.append_pages > 0) {
        // Flip the stored CRC itself: magic/kind/epoch stay readable, so
        // recovery classifies the page as this epoch's torn tail rather
        // than end-of-log residue.
        FlipDeviceByte(dev, page, 24, 0xFF);
      } else {
        std::vector<uint8_t> garbage(o.page_bytes, 0xA5);
        dev->Write(page, 1, garbage, /*now=*/0, /*charge=*/false);
      }
      return jr.valid;
    }
    case SsdRestartFault::kStaleJournal:
      // Destroy the current epoch's seal: recovery must fall back to the
      // previous epoch (or nothing) while the device's frames are newer
      // than any journal entry it can still read — the lazy-scan path.
      FlipDeviceByte(dev, probe.SealPageOf(half), 8, 0xFF);
      return jr.valid;
    case SsdRestartFault::kWiped:
      // A replaced device: no journal and no frame survives, so recovery
      // must rebuild every page from the disk and the WAL alone.
      sys->ssd_device()->RestoreContent({});
      return true;
    case SsdRestartFault::kCorruptFrameHeader: {
      if (jr.entries.empty()) return false;
      // Deterministic pick: the lowest eligible frame, preferring one whose
      // entry the horizon filter keeps (so the drop must come from content
      // verification, not from the LSN gate).
      const Lsn horizon = sys->log().durable_lsn();
      uint64_t target = UINT64_MAX;
      uint64_t fallback = UINT64_MAX;
      for (const auto& [frame, e] : jr.entries) {
        fallback = std::min(fallback, frame);
        if (e.page_lsn == kInvalidLsn || e.page_lsn <= horizon) {
          target = std::min(target, frame);
        }
      }
      if (target == UINT64_MAX) target = fallback;
      // Flip the page-id's low byte: the frame's self-identifying header no
      // longer backs the journal's claim. (The page checksum covers only the
      // payload, so header damage is exactly what the claim check — not the
      // CRC — must catch.)
      FlipDeviceByte(dev, target, 0, 0xFF);
      return true;
    }
  }
  return false;
}

// Builds a fresh system over the capture's surviving bytes, as a restart
// after the crash would find them. In torn mode the first *non-durable*
// record is materialized with a corrupted body and its stale checksum —
// the partially-written block an interrupted log flush leaves behind — and
// the durable horizon is extended over it, as a naive header scan of the
// log device would conclude. Recovery must then truncate it instead of
// replaying garbage.
RecoveredDb MakeRestoredSystem(const CrashHarnessOptions& o,
                               const Catalog& catalog,
                               const CrashCapture& cap, bool torn,
                               SsdRestartFault fault = SsdRestartFault::kClean) {
  RecoveredDb out;
  out.system = std::make_unique<DbSystem>(MakeConfig(o));
  out.db = std::make_unique<Database>(out.system.get());
  out.db->RestoreCatalog(catalog);
  out.system->disk_array().RestoreContent(cap.disk);
  if (cap.has_ssd && out.system->ssd_device() != nullptr) {
    out.system->ssd_device()->RestoreContent(cap.ssd);
  }

  std::vector<LogRecord> records;
  Lsn durable = cap.log.durable_lsn;
  for (const LogRecord& rec : cap.log.records) {
    if (rec.lsn <= cap.log.durable_lsn) records.push_back(rec);
  }
  if (torn) {
    for (const LogRecord& rec : cap.log.records) {
      if (rec.lsn <= cap.log.durable_lsn) continue;
      LogRecord bad = rec;  // keeps the now-stale checksum
      if (!bad.bytes.empty()) {
        bad.bytes[0] = static_cast<uint8_t>(bad.bytes[0] ^ 0xFF);
      } else {
        bad.txn_id = ~bad.txn_id;
      }
      durable = bad.lsn;
      records.push_back(std::move(bad));
      out.torn_injected = true;
      break;
    }
  }
  out.system->log().RestoreDurableState(std::move(records), durable);
  if (cap.has_ssd && out.system->ssd_device() != nullptr) {
    out.ssd_fault_armed = ApplyRestartFault(out.system.get(), o, fault);
  }
  return out;
}

// Restart recovery; warm (journal restore first) exactly when the options
// enable the persistent cache. Fills b.pstats.
RecoveryStats RecoverNow(RecoveredDb& b) {
  IoContext rctx = b.system->MakeContext();
  return b.system->Recover(rctx, &b.pstats);
}

// Byte-compares the full data volume of two recovered systems (synthesized
// never-written pages included). Returns "" when identical.
std::string ComparePages(DbSystem& a, DbSystem& b,
                         const CrashHarnessOptions& o) {
  std::vector<uint8_t> pa(o.page_bytes);
  std::vector<uint8_t> pb(o.page_bytes);
  for (PageId pid = 0; pid < o.db_pages; ++pid) {
    IoContext ca = a.MakeContext();
    IoContext cb = b.MakeContext();
    const Status sa = a.disk_manager().ReadPage(pid, pa, ca);
    const Status sb = b.disk_manager().ReadPage(pid, pb, cb);
    if (!sa.ok() || !sb.ok()) {
      return "page " + std::to_string(pid) + " unreadable: " +
             (sa.ok() ? sb.ToString() : sa.ToString());
    }
    if (std::memcmp(pa.data(), pb.data(), o.page_bytes) != 0) {
      return "page " + std::to_string(pid) + " differs after re-recovery";
    }
  }
  return "";
}

// "[design=.. seed=.. point=.. hit=.. <restart>]"; `restart` names the
// recovery mode ("torn=0", "torn=1" or "warm ssd_fault=..").
std::string Label(const CrashHarnessOptions& o, const std::string& point,
                  int hit, const std::string& restart) {
  return std::string("[design=") + ToString(o.design) +
         " seed=" + std::to_string(o.seed) + " point=" + point +
         " hit=" + std::to_string(hit) + " " + restart + "]";
}

// Oracle exactness: every cell equals its last update at or below
// `horizon`. Reads go through the buffer pool, the path clients observe:
// under the persistent cache a re-attached dirty LC frame legitimately
// shadows its stale disk copy. A failed fetch is a labelled failure, not a
// crash of the harness.
void CheckOracle(DbSystem& system, const WorkloadRun& run, Lsn horizon,
                 const std::string& label, CrashScenarioResult& result) {
  for (const auto& [cell, writes] : run.oracle) {
    uint32_t expected = 0;
    for (const OracleWrite& w : writes) {
      if (w.lsn <= horizon) expected = w.value;
    }
    IoContext rctx = system.MakeContext();
    Status s;
    uint32_t got = 0;
    {
      PageGuard g = system.buffer_pool().FetchPage(
          cell.first, AccessKind::kRandom, rctx, &s);
      if (!g.valid()) {
        result.failures.push_back(label + " oracle read of page " +
                                  std::to_string(cell.first) +
                                  " failed: " + s.ToString());
        if (result.failures.size() >= 8) break;  // one scenario, bounded noise
        continue;
      }
      std::memcpy(&got, g.view().payload() + 4 * cell.second, 4);
    }
    ++result.oracle_cells;
    if (got != expected) {
      result.failures.push_back(
          label + " oracle: page " + std::to_string(cell.first) + " slot " +
          std::to_string(cell.second) + " expected " +
          std::to_string(expected) + " got " + std::to_string(got));
      if (result.failures.size() >= 8) break;  // one scenario, bounded noise
    }
  }
}

CrashScenarioResult VerifyCapture(const CrashHarnessOptions& o,
                                  const WorkloadRun& run,
                                  const CrashCapture& cap, bool torn) {
  CrashScenarioResult result;
  result.triggered = true;
  const std::string label =
      Label(o, cap.point, cap.hit, torn ? "torn=1" : "torn=0");

  RecoveredDb b = MakeRestoredSystem(o, run.catalog, cap, torn);
  b.stats = RecoverNow(b);
  result.recovery = b.stats;
  if (torn && b.torn_injected && b.stats.records_truncated < 1) {
    result.failures.push_back(label + " torn tail record was not truncated");
  }

  // 1. Oracle exactness against the last durable update. The torn block is
  // non-durable — a correct recovery truncates it, so the horizon is the
  // pre-torn durable LSN in both modes.
  CheckOracle(*b.system, run, cap.log.durable_lsn, label, result);

  // 2. The recovered system's structures are internally consistent.
  const AuditReport report = InvariantAuditor::AuditSystem(
      b.system->buffer_pool(), &b.system->ssd_manager());
  if (!report.ok()) {
    result.failures.push_back(label + " audit: " + report.ToString());
  }

  // 3. Recovery converged: a power cut right after it leaves a state whose
  // own recovery applies nothing.
  b.system->Crash();
  const RecoveryStats second = RecoverNow(b);
  if (second.records_applied != 0) {
    result.failures.push_back(label + " second recovery applied " +
                              std::to_string(second.records_applied) +
                              " records");
  }

  // 4. Idempotence: crash *recovery itself* halfway through its redo pass,
  // recover once more, and require the final image to be byte-identical to
  // the single-pass reference. A persistent SSD survives that power cut
  // like any other.
  if (b.stats.records_applied >= 2) {
    const int k = 1 + static_cast<int>(b.stats.records_applied / 2);
    RecoveredDb c = MakeRestoredSystem(o, run.catalog, cap, torn);
    SnapshotObserver cobs(c.system.get(), o.persistent_ssd);
    cobs.Request(kRedoPoint, k);
    {
      ScopedCrashArm arm(&cobs);
      c.stats = RecoverNow(c);
    }
    const CrashCapture* mid = cobs.Find(kRedoPoint, k);
    if (mid == nullptr) {
      result.failures.push_back(label + " mid-redo crash point never hit " +
                                std::to_string(k) + " times");
    } else {
      RecoveredDb d = MakeRestoredSystem(o, run.catalog, *mid,
                                         /*torn=*/false);
      d.stats = RecoverNow(d);
      const std::string diff = ComparePages(*b.system, *d.system, o);
      if (!diff.empty()) {
        result.failures.push_back(label + " idempotence: " + diff);
      }
      result.idempotence_checked = true;
    }
  }
  return result;
}

// Warm-restart verification: recover with the surviving (possibly damaged)
// SSD image and check the persistent-cache contract.
CrashScenarioResult VerifyWarmCapture(const CrashHarnessOptions& o,
                                      const WorkloadRun& run,
                                      const CrashCapture& cap,
                                      SsdRestartFault fault) {
  CrashScenarioResult result;
  result.triggered = true;
  const std::string label = Label(o, cap.point, cap.hit,
                                  std::string("warm ssd_fault=") +
                                      ToString(fault));

  RecoveredDb b =
      MakeRestoredSystem(o, run.catalog, cap, /*torn=*/false, fault);
  result.ssd_fault_armed = b.ssd_fault_armed;
  b.stats = RecoverNow(b);
  result.recovery = b.stats;
  result.persistent = b.pstats;
  const Lsn horizon = cap.log.durable_lsn;

  // 1. Horizon rule: no re-attached frame may claim an LSN beyond the WAL
  // durable horizon — serving one would expose unrecoverable state.
  for (const auto& e : b.system->ssd_manager().SnapshotForCheckpoint()) {
    if (e.page_lsn != kInvalidLsn && e.page_lsn > horizon) {
      result.failures.push_back(
          label + " horizon rule: frame " + std::to_string(e.frame) +
          " re-attached page " + std::to_string(e.page_id) + " at LSN " +
          std::to_string(e.page_lsn) + " > durable horizon " +
          std::to_string(horizon));
    }
  }

  // 2. Convergence: a power cut immediately after recovery must leave a
  // state whose own warm recovery redoes nothing. Captured before anything
  // else touches the recovered system.
  {
    CrashCapture after;
    after.point = cap.point + "+recovered";
    after.hit = cap.hit;
    after.disk = b.system->disk_array().SnapshotContent();
    after.log = b.system->log().SnapshotForCrash();
    after.has_ssd = true;
    after.ssd = b.system->ssd_device()->SnapshotContent();
    RecoveredDb conv = MakeRestoredSystem(o, run.catalog, after,
                                          /*torn=*/false);
    conv.stats = RecoverNow(conv);
    if (conv.stats.records_applied != 0) {
      result.failures.push_back(
          label + " re-crash after recovery redid " +
          std::to_string(conv.stats.records_applied) + " records");
    }
  }

  // 3. Determinism: a second recovery of the same damaged image must yield
  // a byte-identical data volume.
  {
    RecoveredDb d =
        MakeRestoredSystem(o, run.catalog, cap, /*torn=*/false, fault);
    d.stats = RecoverNow(d);
    const std::string diff = ComparePages(*b.system, *d.system, o);
    if (!diff.empty()) {
      result.failures.push_back(label + " determinism: " + diff);
    }
  }

  // 4. Oracle exactness through the buffer pool.
  CheckOracle(*b.system, run, horizon, label, result);

  // 5. Structures consistent, and every in-service frame's on-device header
  // matches the recovered table (the re-attachment proof).
  const AuditReport report = InvariantAuditor::AuditSystem(
      b.system->buffer_pool(), &b.system->ssd_manager());
  if (!report.ok()) {
    result.failures.push_back(label + " audit: " + report.ToString());
  }
  if (const auto* cache =
          dynamic_cast<const SsdCacheBase*>(&b.system->ssd_manager())) {
    const AuditReport headers = InvariantAuditor::AuditSsdFrameHeaders(*cache);
    if (!headers.ok()) {
      result.failures.push_back(label + " frame-header audit: " +
                                headers.ToString());
    }
  }

  // 6. Mid-redo idempotence: crash recovery itself halfway through redo,
  // recover once more (the damage is already on the captured image), and
  // require the final volume to match the single-pass reference.
  if (b.stats.records_applied >= 2) {
    const int k = 1 + static_cast<int>(b.stats.records_applied / 2);
    RecoveredDb c =
        MakeRestoredSystem(o, run.catalog, cap, /*torn=*/false, fault);
    SnapshotObserver cobs(c.system.get(), /*snapshot_ssd=*/true);
    cobs.Request(kRedoPoint, k);
    {
      ScopedCrashArm arm(&cobs);
      c.stats = RecoverNow(c);
    }
    const CrashCapture* mid = cobs.Find(kRedoPoint, k);
    if (mid == nullptr) {
      result.failures.push_back(label + " mid-redo crash point never hit " +
                                std::to_string(k) + " times");
    } else {
      RecoveredDb d2 = MakeRestoredSystem(o, run.catalog, *mid,
                                          /*torn=*/false);
      d2.stats = RecoverNow(d2);
      const std::string diff = ComparePages(*b.system, *d2.system, o);
      if (!diff.empty()) {
        result.failures.push_back(label + " idempotence: " + diff);
      }
      result.idempotence_checked = true;
    }
  }
  return result;
}

}  // namespace

const char* ToString(SsdRestartFault fault) {
  switch (fault) {
    case SsdRestartFault::kClean:
      return "clean";
    case SsdRestartFault::kTornJournalTail:
      return "torn-journal-tail";
    case SsdRestartFault::kStaleJournal:
      return "stale-journal";
    case SsdRestartFault::kCorruptFrameHeader:
      return "corrupt-frame-header";
    case SsdRestartFault::kWiped:
      return "wiped";
  }
  return "unknown";
}

std::map<std::string, int> CrashHarness::ProbeCrashPoints() {
  return RunWorkload(options_, {}, /*capture_first_hits=*/false,
                     /*capture_end=*/false)
      .hits;
}

CrashScenarioResult CrashHarness::RunScenario(const std::string& point,
                                              int hit, bool torn_tail) {
  std::map<std::string, std::set<int>> requests;
  requests[point].insert(hit);
  WorkloadRun run = RunWorkload(options_, requests,
                                /*capture_first_hits=*/false,
                                /*capture_end=*/point == kEndPoint);
  const auto it = run.captures.find({point, hit});
  if (it == run.captures.end()) return CrashScenarioResult{};
  return VerifyCapture(options_, run, it->second, torn_tail);
}

CrashMatrixResult CrashHarness::RunMatrix(bool quick) {
  CrashMatrixResult m;
  // Pass 1: one workload run captures the first hit of every point that
  // fires, plus the quiescent end state.
  WorkloadRun first = RunWorkload(options_, {}, /*capture_first_hits=*/true,
                                  /*capture_end=*/true);
  // Pass 2: middle (and, in full mode, last) hits, from observed counts.
  std::map<std::string, std::set<int>> requests;
  for (const auto& [point, count] : first.hits) {
    if (count >= 3) requests[point].insert(1 + count / 2);
    if (!quick && count >= 2) requests[point].insert(count);
  }
  WorkloadRun second;
  if (!requests.empty()) {
    second = RunWorkload(options_, requests, /*capture_first_hits=*/false,
                         /*capture_end=*/false);
  }

  std::set<std::string> points;
  const auto sweep = [&](const WorkloadRun& run) {
    for (const auto& [key, cap] : run.captures) {
      if (cap.point != kEndPoint) points.insert(cap.point);
      for (const bool torn : {false, true}) {
        const CrashScenarioResult r = VerifyCapture(options_, run, cap, torn);
        ++m.scenarios_run;
        m.failures.insert(m.failures.end(), r.failures.begin(),
                          r.failures.end());
      }
    }
  };
  sweep(first);
  sweep(second);
  m.points_covered = static_cast<int>(points.size());
  return m;
}

CrashScenarioResult CrashHarness::RunWarmRestartScenario(
    const std::string& point, int hit, SsdRestartFault fault) {
  TURBOBP_CHECK(options_.persistent_ssd);
  std::map<std::string, std::set<int>> requests;
  requests[point].insert(hit);
  WorkloadRun run = RunWorkload(options_, requests,
                                /*capture_first_hits=*/false,
                                /*capture_end=*/point == kEndPoint);
  const auto it = run.captures.find({point, hit});
  if (it == run.captures.end()) return CrashScenarioResult{};
  return VerifyWarmCapture(options_, run, it->second, fault);
}

CrashMatrixResult CrashHarness::RunWarmRestartMatrix(bool quick) {
  TURBOBP_CHECK(options_.persistent_ssd);
  CrashMatrixResult m;
  // Pass 1: first hit of every point that fires, plus the quiescent end
  // state. Full mode adds a second pass crashing at each point's middle hit.
  WorkloadRun first = RunWorkload(options_, {}, /*capture_first_hits=*/true,
                                  /*capture_end=*/true);
  std::map<std::string, std::set<int>> requests;
  if (!quick) {
    for (const auto& [point, count] : first.hits) {
      if (count >= 3) requests[point].insert(1 + count / 2);
    }
  }
  WorkloadRun second;
  if (!requests.empty()) {
    second = RunWorkload(options_, requests, /*capture_first_hits=*/false,
                         /*capture_end=*/false);
  }

  constexpr SsdRestartFault kFaults[] = {
      SsdRestartFault::kClean, SsdRestartFault::kTornJournalTail,
      SsdRestartFault::kStaleJournal, SsdRestartFault::kCorruptFrameHeader,
      SsdRestartFault::kWiped};
  std::set<std::string> points;
  const auto sweep = [&](const WorkloadRun& run) {
    for (const auto& [key, cap] : run.captures) {
      if (cap.point != kEndPoint) points.insert(cap.point);
      for (const SsdRestartFault fault : kFaults) {
        const CrashScenarioResult r =
            VerifyWarmCapture(options_, run, cap, fault);
        ++m.scenarios_run;
        m.failures.insert(m.failures.end(), r.failures.begin(),
                          r.failures.end());
      }
    }
  };
  sweep(first);
  sweep(second);
  m.points_covered = static_cast<int>(points.size());
  return m;
}

std::vector<std::string> CrashHarness::RunRedoIdempotenceSweep(int max_steps) {
  std::vector<std::string> failures;
  WorkloadRun run = RunWorkload(options_, {}, /*capture_first_hits=*/false,
                                /*capture_end=*/true);
  const auto it = run.captures.find({std::string(kEndPoint), 1});
  TURBOBP_CHECK(it != run.captures.end());
  const CrashCapture& cap = it->second;

  RecoveredDb ref = MakeRestoredSystem(options_, run.catalog, cap,
                                       /*torn=*/false);
  ref.stats = RecoverNow(ref);
  const int64_t applied = ref.stats.records_applied;
  if (applied == 0) {
    failures.push_back(Label(options_, kEndPoint, 1, "torn=0") +
                       " workload produced no redo work — sweep is vacuous");
    return failures;
  }
  const int64_t steps =
      max_steps > 0 ? std::min<int64_t>(applied, max_steps) : applied;
  for (int64_t k = 1; k <= steps; ++k) {
    RecoveredDb c = MakeRestoredSystem(options_, run.catalog, cap,
                                       /*torn=*/false);
    SnapshotObserver cobs(c.system.get(), options_.persistent_ssd);
    cobs.Request(kRedoPoint, static_cast<int>(k));
    {
      ScopedCrashArm arm(&cobs);
      c.stats = RecoverNow(c);
    }
    const std::string label =
        Label(options_, kRedoPoint, static_cast<int>(k), "torn=0");
    const CrashCapture* mid = cobs.Find(kRedoPoint, static_cast<int>(k));
    if (mid == nullptr) {
      failures.push_back(label + " redo crash point did not fire");
      continue;
    }
    RecoveredDb d = MakeRestoredSystem(options_, run.catalog, *mid,
                                       /*torn=*/false);
    d.stats = RecoverNow(d);
    const std::string diff = ComparePages(*ref.system, *d.system, options_);
    if (!diff.empty()) failures.push_back(label + " " + diff);
    d.system->Crash();
    const RecoveryStats again = RecoverNow(d);
    if (again.records_applied != 0) {
      failures.push_back(label + " re-recovery applied " +
                         std::to_string(again.records_applied) + " records");
    }
  }
  return failures;
}

}  // namespace turbobp

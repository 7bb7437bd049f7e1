#include "fault/crash_harness.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
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
  MemDevice::Content ssd;
};

// Snapshots what a power cut at this instant would leave of `system`. Only
// lock-free or device-class-latched reads (ordered after every engine
// latch), so it is safe from inside a crash point.
CrashCapture Capture(DbSystem& system, std::string point, int hit) {
  CrashCapture cap;
  cap.point = std::move(point);
  cap.hit = hit;
  cap.disk = system.disk_array().SnapshotContent();
  cap.log = system.log().SnapshotForCrash();
  if (system.config().persistent_ssd_cache &&
      system.ssd_device() != nullptr) {
    cap.has_ssd = true;
    cap.ssd = system.ssd_device()->SnapshotContent();
  }
  return cap;
}

// Captures crash snapshots at requested (point, hit) pairs. OnCrashPoint
// runs synchronously inside the engine, possibly with latches held: it only
// captures, and never re-enters the engine.
class SnapshotObserver : public CrashPointObserver {
 public:
  explicit SnapshotObserver(DbSystem* system) : system_(system) {}

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

  void OnCrashPoint(const char* name) override {
    const int n = ++hits_[name];
    bool want = capture_first_hits_ && n == 1;
    if (!want) {
      auto it = requests_.find(name);
      want = it != requests_.end() && it->second.contains(n);
    }
    if (want) captures_[{name, n}] = Capture(*system_, name, n);
  }

 private:
  DbSystem* system_;
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
// observer. The quiescent end state (maximal redo tail) is the
// end-of-workload pseudo-point, which fires once after the last op.
WorkloadRun RunWorkload(const CrashHarnessOptions& o,
                        const std::map<std::string, std::set<int>>& requests,
                        bool capture_first_hits) {
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

  SnapshotObserver obs(&system);
  for (const auto& [point, hit_set] : requests) {
    for (int hit : hit_set) obs.Request(point, hit);
  }
  obs.set_capture_first_hits(capture_first_hits);

  Rng rng(o.seed * 7919 + static_cast<uint64_t>(o.design));
  uint32_t counter = 0;
  uint64_t heap_rows = 0;
  uint64_t tree_values = 0;
  // Heap and tree transactions commit with probability 1/2; the rest stay
  // an unforced tail until a later force makes them durable.
  const auto commit_half_the_time = [&] {
    if (rng.Bernoulli(0.5)) {
      system.log().AppendCommit(next_txn);
      system.log().CommitForce(ctx);
    }
    ++next_txn;
  };
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
        commit_half_the_time();
      } else if (r < 78) {
        std::vector<uint8_t> row(kHeapRowBytes);
        for (size_t j = 0; j < row.size(); ++j) {
          row[j] = static_cast<uint8_t>(counter + j);
        }
        heap.Update(heap.RidOfRow(rng.Uniform(heap_rows)), row, next_txn,
                    ctx);
        commit_half_the_time();
      } else if (r < 86) {
        // Lands between the pre-loaded keys, so near-full leaves split.
        tree.Insert(1 + rng.Uniform(kBtreePreloadKeys * 1000), ++tree_values,
                    next_txn, ctx);
        TURBOBP_CHECK(db.catalog().next_free_page <= slot_first);
        commit_half_the_time();
      } else {
        // Read-only fetch: drives SSD admissions and hits.
        PageGuard g = system.buffer_pool().FetchPage(
            slot_first + rng.Uniform(kSlotRegionPages), AccessKind::kRandom,
            ctx);
      }
      if (i % 4 == 3) Sync(system, ctx);
    }
    Sync(system, ctx);
    obs.OnCrashPoint(kEndPoint);
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

// Builds a fresh system over the capture's surviving bytes, as `restart`
// finds them. A torn log tail extends the durable horizon over the torn
// record, as a naive header scan of the log device would conclude; recovery
// must then truncate it instead of replaying garbage.
RecoveredDb MakeRestoredSystem(const CrashHarnessOptions& o,
                               const Catalog& catalog,
                               const CrashCapture& cap,
                               const Restart& restart) {
  RecoveredDb out;
  out.system = std::make_unique<DbSystem>(MakeConfig(o));
  out.db = std::make_unique<Database>(out.system.get());
  out.db->RestoreCatalog(catalog);
  out.system->disk_array().RestoreContent(cap.disk);
  if (cap.has_ssd && out.system->ssd_device() != nullptr) {
    out.system->ssd_device()->RestoreContent(cap.ssd);
  }

  // The log device holds the durable prefix; the copy shares the capture's
  // segments, and only the segment a torn flip lands in is cloned.
  LogBuffer log = cap.log.records;
  Lsn durable = cap.log.durable_lsn;
  Lsn end = log.end_lsn();
  for (const LogRecordView rec : log) {
    if (rec.lsn <= durable) continue;
    end = rec.lsn;
    if (restart.torn_log_tail) {
      // The first non-durable record's block reached the medium with one
      // byte wrong, header or payload, picked per scenario.
      Rng rng(o.seed * 7919 + static_cast<uint64_t>(o.design) + rec.lsn);
      end = rec.lsn + rec.SizeOnDisk();
      log.FlipByte(rec.lsn + rng.Uniform(rec.SizeOnDisk()), 0xFF);
      durable = rec.lsn;
      out.torn_injected = true;
    }
    break;
  }
  log.CutTail(end);
  out.system->log().RestoreDurableState(std::move(log), durable);
  if (cap.has_ssd && out.system->ssd_device() != nullptr) {
    out.ssd_fault_armed = ApplyRestartFault(out.system.get(), o, restart.ssd);
  }
  return out;
}

// Restart recovery; warm (journal restore first) exactly when the options
// enable the persistent cache. Fills b.stats and b.pstats.
void RecoverNow(RecoveredDb& b) {
  IoContext rctx = b.system->MakeContext();
  b.stats = b.system->Recover(rctx, &b.pstats);
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

// "[design=.. seed=.. point=.. hit=.. torn=0|1]"; under the persistent
// cache the SSD restart fault follows: "[... torn=0 warm ssd_fault=..]".
std::string Label(const CrashHarnessOptions& o, const std::string& point,
                  int hit, const Restart& restart) {
  std::string label = std::string("[design=") + ToString(o.design) +
                      " seed=" + std::to_string(o.seed) + " point=" + point +
                      " hit=" + std::to_string(hit) +
                      (restart.torn_log_tail ? " torn=1" : " torn=0");
  if (o.persistent_ssd) {
    label += std::string(" warm ssd_fault=") + ToString(restart.ssd);
  }
  return label + "]";
}

// Convergence: a power cut right after `system` recovered leaves a state
// whose own recovery applies nothing.
void CheckConverged(const CrashHarnessOptions& o, const Catalog& catalog,
                    DbSystem& system, const std::string& label,
                    std::vector<std::string>& failures) {
  RecoveredDb again =
      MakeRestoredSystem(o, catalog, Capture(system, "recovered", 1), {});
  RecoverNow(again);
  if (again.stats.records_applied != 0) {
    failures.push_back(label + " re-crash after recovery redid " +
                       std::to_string(again.stats.records_applied) +
                       " records");
  }
}

// Recovers `cap` a second time with a power cut armed at its k-th applied
// redo record (k == 0: none), then recovers the state that cut left behind
// (the restart damage is already on it; a persistent SSD survives the cut
// like any other). Both volumes must equal `reference`, a single
// uninterrupted recovery of `cap`: the second recovery proves determinism,
// the third idempotence. Returns the third system, or an empty one when
// nothing was cut.
RecoveredDb CheckReRecovery(const CrashHarnessOptions& o,
                            const Catalog& catalog, const CrashCapture& cap,
                            const Restart& restart, int k, DbSystem& reference,
                            const std::string& label,
                            std::vector<std::string>& failures) {
  RecoveredDb c = MakeRestoredSystem(o, catalog, cap, restart);
  SnapshotObserver obs(c.system.get());
  if (k > 0) obs.Request(kRedoPoint, k);
  {
    ScopedCrashArm arm(&obs);
    RecoverNow(c);
  }
  std::string diff = ComparePages(reference, *c.system, o);
  if (!diff.empty()) failures.push_back(label + " determinism: " + diff);
  if (k == 0) return {};
  const CrashCapture* mid = obs.Find(kRedoPoint, k);
  if (mid == nullptr) {
    failures.push_back(label + " mid-redo crash point never hit " +
                       std::to_string(k) + " times");
    return {};
  }
  RecoveredDb d = MakeRestoredSystem(o, catalog, *mid, {});
  RecoverNow(d);
  diff = ComparePages(reference, *d.system, o);
  if (!diff.empty()) failures.push_back(label + " idempotence: " + diff);
  return d;
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

// One scenario's check list (see crash_harness.h), the same for every
// restart. The volume comparisons run before the oracle reads touch the
// recovered system.
CrashScenarioResult Verify(const CrashHarnessOptions& o,
                           const WorkloadRun& run, const CrashCapture& cap,
                           const Restart& restart) {
  CrashScenarioResult result;
  result.triggered = true;
  std::vector<std::string>& failures = result.failures;
  const std::string label = Label(o, cap.point, cap.hit, restart);

  RecoveredDb b = MakeRestoredSystem(o, run.catalog, cap, restart);
  result.ssd_fault_armed = b.ssd_fault_armed;
  RecoverNow(b);
  result.recovery = b.stats;
  result.persistent = b.pstats;
  // The torn block is non-durable, so the horizon is the pre-torn durable
  // LSN with either log tail.
  const Lsn horizon = cap.log.durable_lsn;

  if (b.torn_injected && b.stats.records_truncated < 1) {
    failures.push_back(label + " torn tail record was not truncated");
  }
  for (const auto& e : b.system->ssd_manager().SnapshotForCheckpoint()) {
    if (e.page_lsn != kInvalidLsn && e.page_lsn > horizon) {
      failures.push_back(label + " horizon rule: frame " +
                         std::to_string(e.frame) + " re-attached page " +
                         std::to_string(e.page_id) + " at LSN " +
                         std::to_string(e.page_lsn) + " > durable horizon " +
                         std::to_string(horizon));
    }
  }
  CheckConverged(o, run.catalog, *b.system, label, failures);
  const int k = b.stats.records_applied >= 2
                    ? 1 + static_cast<int>(b.stats.records_applied / 2)
                    : 0;
  CheckReRecovery(o, run.catalog, cap, restart, k, *b.system, label,
                  failures);

  CheckOracle(*b.system, run, horizon, label, result);
  const AuditReport report = InvariantAuditor::AuditSystem(
      b.system->buffer_pool(), &b.system->ssd_manager());
  if (!report.ok()) failures.push_back(label + " audit: " + report.ToString());
  if (const auto* cache =
          dynamic_cast<const SsdCacheBase*>(&b.system->ssd_manager())) {
    const AuditReport headers = InvariantAuditor::AuditSsdFrameHeaders(*cache);
    if (!headers.ok()) {
      failures.push_back(label + " frame-header audit: " + headers.ToString());
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
  std::map<std::string, int> hits =
      RunWorkload(options_, {}, /*capture_first_hits=*/false).hits;
  hits.erase(kEndPoint);
  return hits;
}

CrashScenarioResult CrashHarness::RunScenario(const std::string& point,
                                              int hit,
                                              const Restart& restart) {
  TURBOBP_CHECK(restart.ssd == SsdRestartFault::kClean ||
                options_.persistent_ssd);
  std::map<std::string, std::set<int>> requests;
  requests[point].insert(hit);
  WorkloadRun run =
      RunWorkload(options_, requests, /*capture_first_hits=*/false);
  const auto it = run.captures.find({point, hit});
  if (it == run.captures.end()) return CrashScenarioResult{};
  return Verify(options_, run, it->second, restart);
}

CrashMatrixResult CrashHarness::RunMatrix(bool quick) {
  CrashMatrixResult m;
  // Pass 1: one workload run captures the first hit of every point that
  // fires, plus the quiescent end state.
  WorkloadRun first = RunWorkload(options_, {}, /*capture_first_hits=*/true);
  // Pass 2: middle (and, in full mode, last) hits, from observed counts.
  std::map<std::string, std::set<int>> requests;
  for (const auto& [point, count] : first.hits) {
    if (count >= 3) requests[point].insert(1 + count / 2);
    if (!quick && count >= 2) requests[point].insert(count);
  }
  WorkloadRun second;
  if (!requests.empty()) {
    second = RunWorkload(options_, requests, /*capture_first_hits=*/false);
  }

  // A reformatted SSD has no image to damage.
  std::vector<Restart> restarts;
  for (const bool torn : {false, true}) {
    for (const SsdRestartFault ssd : kAllSsdRestartFaults) {
      if (ssd == SsdRestartFault::kClean || options_.persistent_ssd) {
        restarts.push_back({.torn_log_tail = torn, .ssd = ssd});
      }
    }
  }
  std::set<std::string> points;
  for (const WorkloadRun* run : {&first, &second}) {
    for (const auto& [key, cap] : run->captures) {
      if (cap.point != kEndPoint) points.insert(cap.point);
      for (const Restart& restart : restarts) {
        const CrashScenarioResult r = Verify(options_, *run, cap, restart);
        ++m.scenarios_run;
        m.failures.insert(m.failures.end(), r.failures.begin(),
                          r.failures.end());
      }
    }
  }
  m.points_covered = static_cast<int>(points.size());
  return m;
}

std::vector<std::string> CrashHarness::RunRedoIdempotenceSweep(int max_steps) {
  std::vector<std::string> failures;
  WorkloadRun run = RunWorkload(options_, {{kEndPoint, {1}}},
                                /*capture_first_hits=*/false);
  const auto it = run.captures.find({std::string(kEndPoint), 1});
  TURBOBP_CHECK(it != run.captures.end());
  const CrashCapture& cap = it->second;

  RecoveredDb ref = MakeRestoredSystem(options_, run.catalog, cap, {});
  RecoverNow(ref);
  const int64_t applied = ref.stats.records_applied;
  if (applied == 0) {
    failures.push_back(Label(options_, kEndPoint, 1, {}) +
                       " workload produced no redo work — sweep is vacuous");
    return failures;
  }
  const int64_t steps =
      max_steps > 0 ? std::min<int64_t>(applied, max_steps) : applied;
  for (int k = 1; k <= steps; ++k) {
    const std::string label = Label(options_, kRedoPoint, k, {});
    RecoveredDb d = CheckReRecovery(options_, run.catalog, cap, {}, k,
                                    *ref.system, label, failures);
    if (d.system != nullptr) {
      CheckConverged(options_, run.catalog, *d.system, label, failures);
    }
  }
  return failures;
}

TortureSweep TortureSweepFromEnv(std::vector<uint64_t> default_seeds) {
  TortureSweep sweep;
  const char* full = std::getenv("TURBOBP_TORTURE_FULL");
  sweep.full = full != nullptr && *full != '\0' && *full != '0';
  const char* env = std::getenv("TURBOBP_TORTURE_SEEDS");
  for (const char* p = env; p != nullptr && *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') continue;
    char* end = nullptr;
    sweep.seeds.push_back(std::strtoull(p, &end, 10));
    p = end - 1;  // the loop steps onto the separator
  }
  if (sweep.seeds.empty()) sweep.seeds = std::move(default_seeds);
  return sweep;
}

}  // namespace turbobp

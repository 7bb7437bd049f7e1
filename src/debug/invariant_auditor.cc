#include "debug/invariant_auditor.h"

#include <mutex>
#include <unordered_set>
#include <utility>

#include "buffer/buffer_pool.h"
#include "core/ssd_buffer_table.h"
#include "core/ssd_cache_base.h"
#include "core/ssd_heap.h"
#include "storage/page.h"

namespace turbobp {

namespace {
std::string PidStr(PageId pid) {
  return pid == kInvalidPageId ? std::string("<invalid>") : std::to_string(pid);
}
}  // namespace

std::string AuditReport::ToString() const {
  if (ok()) return "audit clean";
  std::string out = "audit found " + std::to_string(violations_.size()) +
                    " violation(s):";
  for (const InvariantViolation& v : violations_) {
    out += "\n  [" + v.structure + "] " + v.detail;
  }
  return out;
}

AuditReport InvariantAuditor::AuditBufferPool(const BufferPool& pool) {
  using FrameState = BufferPool::FrameState;
  AuditReport report;

  // The pool is sharded; each shard is audited under its own latch. An
  // in-flight frame (kReading / kWriting / kEvicting) is a legal transient
  // the auditor may observe mid-fetch, with its own hygiene rules below.
  std::unordered_set<int32_t> mapped_frames;  // across all shards
  for (size_t si = 0; si < pool.shards_.size(); ++si) {
    const auto& sh = *pool.shards_[si];
    TrackedLockGuard lock(sh.mu);
    const std::string where = "shard " + std::to_string(si) + ": ";
    int64_t in_flight = 0;

    // Page table -> frame direction, in page-id order over this shard's
    // entries: every mapped entry names a frame of this shard that holds
    // exactly that page, and no two entries share a frame.
    int64_t entries = 0;
    for (PageId pid = 0; pid < pool.page_table_.size(); ++pid) {
      if (pool.ShardOf(pid) != si) continue;
      const int32_t frame = pool.Slot(sh, pid);
      if (frame < 0) continue;
      ++entries;
      if (frame < sh.frame_begin || frame >= sh.frame_end) {
        report.Add("pool.page_table", where + "entry for page " + PidStr(pid) +
                                          " points at out-of-range frame " +
                                          std::to_string(frame));
        continue;
      }
      if (!mapped_frames.insert(frame).second) {
        report.Add("pool.page_table", "frame " + std::to_string(frame) +
                                          " is mapped by more than one page");
      }
      const auto& f = pool.frames_[frame];
      if (f.page_id != pid) {
        report.Add("pool.page_table",
                   "stale entry: page " + PidStr(pid) + " maps to frame " +
                       std::to_string(frame) + " which holds page " +
                       PidStr(f.page_id));
      }
      if (f.state == FrameState::kFree) {
        report.Add("pool.page_table", where + "page " + PidStr(pid) +
                                          " maps to frame " +
                                          std::to_string(frame) +
                                          " whose state is free");
      }
    }

    // Frame -> page table direction, state hygiene, empty-frame hygiene.
    for (int32_t i = sh.frame_begin; i < sh.frame_end; ++i) {
      const auto& f = pool.frames_[i];
      const FrameState st = f.state;
      if (st == FrameState::kReading || st == FrameState::kWriting ||
          st == FrameState::kEvicting) {
        ++in_flight;
      }
      if (f.page_id != kInvalidPageId) {
        const PageId pid = f.page_id;
        if (pid >= pool.page_table_.size() || pool.ShardOf(pid) != si ||
            pool.Slot(sh, pid) != i) {
          report.Add("pool.frames", "resident frame " + std::to_string(i) +
                                        " (page " + PidStr(f.page_id) +
                                        ") is not indexed by the page table");
        }
        if (st == FrameState::kFree) {
          report.Add("pool.frames", "frame " + std::to_string(i) +
                                        " holds page " + PidStr(f.page_id) +
                                        " but its state is free");
        }
        if (st == FrameState::kReading && f.dirty) {
          report.Add("pool.frames", "frame " + std::to_string(i) +
                                        " is mid-read but marked dirty");
        }
        if ((st == FrameState::kReading || st == FrameState::kEvicting) &&
            f.pin_count != 0) {
          report.Add("pool.frames", "in-flight frame " + std::to_string(i) +
                                        " (page " + PidStr(f.page_id) +
                                        ") is pinned");
        }
        // A clean frame was verified where it entered or sealed by the
        // flush that cleaned it; its eviction hands the bytes to the SSD
        // without re-sealing. Pinned frames are skipped: a writer may be
        // mid-edit before its LogUpdate.
        if (st == FrameState::kResident && !f.dirty && f.pin_count == 0 &&
            !PageView(pool.FrameSpan(i)).IsIntactCopyOf(f.page_id)) {
          report.Add("pool.frames", "clean frame " + std::to_string(i) +
                                        " is not an intact copy of page " +
                                        PidStr(f.page_id));
        }
      } else {
        if (f.dirty) {
          report.Add("pool.frames",
                     "empty frame " + std::to_string(i) + " is marked dirty");
        }
        if (f.pin_count != 0) {
          report.Add("pool.frames", "empty frame " + std::to_string(i) +
                                        " has pin count " +
                                        std::to_string(f.pin_count));
        }
        if (st != FrameState::kFree) {
          report.Add("pool.frames", "empty frame " + std::to_string(i) +
                                        " is not in the free state");
        }
      }
    }

    // Free list: in range, listed once, genuinely free.
    std::unordered_set<int32_t> free_set;
    for (const int32_t frame : sh.free_list) {
      if (frame < sh.frame_begin || frame >= sh.frame_end) {
        report.Add("pool.free_list",
                   where + "out-of-range frame " + std::to_string(frame));
        continue;
      }
      if (!free_set.insert(frame).second) {
        report.Add("pool.free_list",
                   "frame " + std::to_string(frame) + " listed twice");
        continue;
      }
      const auto& f = pool.frames_[frame];
      if (f.page_id != kInvalidPageId) {
        report.Add("pool.free_list", "frame " + std::to_string(frame) +
                                         " is on the free list but holds page " +
                                         PidStr(f.page_id));
      }
      if (f.state != FrameState::kFree) {
        report.Add("pool.free_list",
                   "frame " + std::to_string(frame) +
                       " is on the free list but its state is not free");
      }
    }

    // Shard accounting: the mapped counter matches the entries, every frame
    // is free-listed, mapped, or claimed-but-unpublished, and the transient
    // counter must equal the claimed-but-unpublished frames plus the mapped
    // frames that are mid-I/O (kReading / kWriting / kEvicting all keep
    // their page-table entry).
    if (sh.mapped != entries) {
      report.Add("pool.shard", where + "mapped counter " +
                                   std::to_string(sh.mapped) + " != " +
                                   std::to_string(entries) +
                                   " page-table entries");
    }
    const int64_t range = sh.frame_end - sh.frame_begin;
    const int64_t claimed =
        range - static_cast<int64_t>(sh.free_list.size()) - entries;
    if (sh.transient != claimed + in_flight) {
      report.Add("pool.shard",
                 where + "transient counter " + std::to_string(sh.transient) +
                     " != " + std::to_string(claimed) +
                     " claimed-unpublished + " + std::to_string(in_flight) +
                     " in-flight");
    }
  }
  return report;
}

AuditReport InvariantAuditor::AuditSsdCache(const SsdCacheBase& cache) {
  AuditReport report;
  const SsdDesign design = cache.design();

  // Partition frame ranges must tile [0, S) contiguously and disjointly.
  int64_t expected_base = 0;
  for (size_t pi = 0; pi < cache.partitions_.size(); ++pi) {
    const auto& part = *cache.partitions_[pi];
    if (part.frame_base != expected_base) {
      report.Add("ssd.partitions",
                 "partition " + std::to_string(pi) + " frame base " +
                     std::to_string(part.frame_base) + " != expected " +
                     std::to_string(expected_base));
    }
    expected_base = part.frame_base + part.table.capacity();
  }
  if (expected_base != cache.options_.num_frames) {
    report.Add("ssd.partitions",
               "partition capacities cover " + std::to_string(expected_base) +
                   " frames, options say " +
                   std::to_string(cache.options_.num_frames));
  }

  int64_t used_total = 0;
  int64_t dirty_total = 0;
  int64_t invalid_total = 0;
  int64_t quarantined_total = 0;
  int64_t degraded_total = 0;
  for (size_t pi = 0; pi < cache.partitions_.size(); ++pi) {
    const auto& part = *cache.partitions_[pi];
    const std::string where = "partition " + std::to_string(pi);
    const bool part_degraded = part.degraded.load(std::memory_order_acquire);
    if (part_degraded) ++degraded_total;
    TrackedLockGuard lock(part.mu);
    const SsdBufferTable& table = part.table;
    const SsdSplitHeap<>& heap = part.heap;
    const int32_t cap = table.capacity();

    // Heap-internal order and position bookkeeping.
    if (!heap.CheckInvariants()) {
      report.Add("ssd.heap", where + ": heap order/position invariant broken");
    }

    // Free list: no cycles, in range, length reconciles with used().
    std::vector<char> on_free(static_cast<size_t>(cap), 0);
    int32_t free_count = 0;
    for (int32_t rec = table.free_head_; rec != -1;
         rec = table.records_[static_cast<size_t>(rec)].free_next) {
      if (rec < 0 || rec >= cap) {
        report.Add("ssd.free_list",
                   where + ": out-of-range record " + std::to_string(rec));
        break;
      }
      if (on_free[static_cast<size_t>(rec)]) {
        report.Add("ssd.free_list",
                   where + ": cycle through record " + std::to_string(rec));
        break;
      }
      on_free[static_cast<size_t>(rec)] = 1;
      ++free_count;
    }
    if (free_count + table.used() != cap) {
      report.Add("ssd.free_list",
                 where + ": " + std::to_string(free_count) + " free + " +
                     std::to_string(table.used()) + " used != capacity " +
                     std::to_string(cap));
    }

    // Page index: every entry names an in-table record of this partition
    // that holds that page. A record counts as hashed only through its own
    // page's entry, so the state pass below, which requires exactly the
    // clean, dirty and invalid records to be hashed, closes the bijection.
    std::vector<char> in_hash(static_cast<size_t>(cap), 0);
    for (size_t pid = 0; pid < table.index_.size(); ++pid) {
      const int32_t rec = table.index_[pid];
      if (rec == -1) continue;
      const auto entry = [&] {
        return where + ": index entry for page " + std::to_string(pid) +
               " names record " + std::to_string(rec);
      };
      if (rec < 0 || rec >= cap) {
        report.Add("ssd.hash", entry() + ", out of range");
        continue;
      }
      const SsdFrameRecord& r = table.record(rec);
      if (r.state == SsdFrameState::kFree) {
        report.Add("ssd.hash", where + ": stale hash entry: record " +
                                   std::to_string(rec) + " (page " +
                                   std::to_string(pid) + ") is free");
        continue;
      }
      if (r.page_id != pid) {
        report.Add("ssd.hash", entry() + ", which holds page " +
                                   PidStr(r.page_id));
        continue;
      }
      in_hash[static_cast<size_t>(rec)] = 1;
      if (&cache.PartitionFor(r.page_id) != &part) {
        report.Add("ssd.hash", where + ": page " + PidStr(r.page_id) +
                                   " belongs to a different partition");
      }
    }

    // Record states vs hash/free/heap membership: the per-frame half of the
    // copy-state machine (a dirty frame must sit in the dirty heap until the
    // cleaner copies it out; free and invalid frames sit in no heap).
    for (int32_t rec = 0; rec < cap; ++rec) {
      const SsdFrameRecord& r = table.record(rec);
      const std::string who =
          where + " record " + std::to_string(rec) + " (page " +
          PidStr(r.page_id) + ")";
      const bool hashed = in_hash[static_cast<size_t>(rec)] != 0;
      const bool freed = on_free[static_cast<size_t>(rec)] != 0;
      // A degraded partition was purged when it dropped out of service, and
      // nothing may admit into it while its flag is up: only free and
      // quarantined records are legal until the canary re-enables it.
      if (part_degraded && r.state != SsdFrameState::kFree &&
          r.state != SsdFrameState::kQuarantined) {
        report.Add("ssd.degraded",
                   who + ": in-service record inside a degraded partition");
      }
      switch (r.state) {
        case SsdFrameState::kFree:
          if (hashed) {
            report.Add("ssd.table", who + ": free but still hashed");
          }
          if (!freed) {
            report.Add("ssd.table", who + ": free but not on the free list");
          }
          if (heap.Contains(rec)) {
            report.Add("ssd.table", who + ": free but present in a heap");
          }
          break;
        case SsdFrameState::kClean:
          if (!hashed) report.Add("ssd.table", who + ": clean but not hashed");
          if (freed) {
            report.Add("ssd.table", who + ": clean but on the free list");
          }
          if (!heap.Contains(rec)) {
            report.Add("ssd.table", who + ": clean but in no heap");
          } else if (heap.IsDirtySide(rec)) {
            report.Add("ssd.heap", who + ": record says clean but sits in the"
                                         " dirty heap");
          }
          break;
        case SsdFrameState::kDirty:
          ++dirty_total;
          if (design != SsdDesign::kLazyCleaning) {
            report.Add("ssd.table",
                       who + ": dirty SSD frame under design " +
                           std::string(turbobp::ToString(design)) +
                           " (only LC writes dirty pages to the SSD)");
          }
          if (!hashed) report.Add("ssd.table", who + ": dirty but not hashed");
          if (freed) {
            report.Add("ssd.table", who + ": dirty but on the free list");
          }
          if (!heap.Contains(rec)) {
            report.Add("ssd.heap",
                       who + ": dirty but in no heap (the cleaner would"
                             " never find it)");
          } else if (!heap.IsDirtySide(rec)) {
            report.Add("ssd.heap", who + ": record says dirty but sits in the"
                                         " clean heap");
          }
          break;
        case SsdFrameState::kInvalid:
          ++invalid_total;
          if (design != SsdDesign::kTac) {
            report.Add("ssd.table",
                       who + ": logically-invalid frame under design " +
                           std::string(turbobp::ToString(design)) +
                           " (only TAC invalidates logically)");
          }
          if (!hashed) {
            report.Add("ssd.table", who + ": invalid but not hashed");
          }
          if (freed) {
            report.Add("ssd.table", who + ": invalid but on the free list");
          }
          if (heap.Contains(rec)) {
            report.Add("ssd.heap", who + ": invalid but present in a heap");
          }
          break;
        case SsdFrameState::kQuarantined:
          // A quarantined frame is out of service for good: never hashed,
          // never on the free list (the flash cells are bad), in no heap.
          // It still counts toward table.used(), so free + used == capacity
          // keeps holding.
          ++quarantined_total;
          if (hashed) {
            report.Add("ssd.table", who + ": quarantined but still hashed");
          }
          if (freed) {
            report.Add("ssd.table",
                       who + ": quarantined but on the free list (a bad frame"
                             " must never be reused)");
          }
          if (heap.Contains(rec)) {
            report.Add("ssd.heap", who + ": quarantined but present in a heap");
          }
          break;
      }
    }

    // Heap slots -> record states (the other direction of the membership
    // checks above, so a record/heap disagreement is caught from both ends).
    for (int32_t i = 0; i < heap.clean_size(); ++i) {
      const int32_t rec = heap.SlotAt(SsdSplitHeap<>::kClean, i);
      if (rec < 0 || rec >= cap) continue;  // CheckInvariants reported it
      if (table.record(rec).state != SsdFrameState::kClean) {
        report.Add("ssd.heap", where + ": clean-heap slot " +
                                   std::to_string(i) + " holds record " +
                                   std::to_string(rec) +
                                   " whose state is not clean");
      }
    }
    for (int32_t i = 0; i < heap.dirty_size(); ++i) {
      const int32_t rec = heap.SlotAt(SsdSplitHeap<>::kDirty, i);
      if (rec < 0 || rec >= cap) continue;
      if (table.record(rec).state != SsdFrameState::kDirty) {
        report.Add("ssd.heap", where + ": dirty-heap slot " +
                                   std::to_string(i) + " holds record " +
                                   std::to_string(rec) +
                                   " whose state is not dirty");
      }
    }

    used_total += table.used();
  }

  // Aggregate counters vs ground truth. Quarantined records stay allocated
  // in the table (used() includes them) but the used_frames_ gauge counts
  // only frames still serving pages.
  if (used_total != cache.used_frames_.load() + quarantined_total) {
    report.Add("ssd.counters",
               "used_frames counter " +
                   std::to_string(cache.used_frames_.load()) + " + " +
                   std::to_string(quarantined_total) +
                   " quarantined != table total " + std::to_string(used_total));
  }
  if (quarantined_total != cache.quarantined_frames_.load()) {
    report.Add("ssd.counters",
               "quarantined_frames counter " +
                   std::to_string(cache.quarantined_frames_.load()) +
                   " != quarantined-record total " +
                   std::to_string(quarantined_total));
  }
  if (dirty_total != cache.dirty_frames_.load()) {
    report.Add("ssd.counters",
               "dirty_frames counter " +
                   std::to_string(cache.dirty_frames_.load()) +
                   " != dirty-record total " + std::to_string(dirty_total));
  }
  if (invalid_total != cache.invalid_frames_.load()) {
    report.Add("ssd.counters",
               "invalid_frames counter " +
                   std::to_string(cache.invalid_frames_.load()) +
                   " != invalid-record total " + std::to_string(invalid_total));
  }
  if (degraded_total != cache.degraded_partitions_.load()) {
    report.Add("ssd.counters",
               "degraded_partitions gauge " +
                   std::to_string(cache.degraded_partitions_.load()) +
                   " != degraded-flag total " + std::to_string(degraded_total));
  }
  return report;
}

AuditReport InvariantAuditor::AuditSystem(const BufferPool& pool,
                                          const SsdManager* ssd) {
  AuditReport report = AuditBufferPool(pool);
  const auto* cache = dynamic_cast<const SsdCacheBase*>(ssd);
  if (cache != nullptr) report.Merge(AuditSsdCache(*cache));
  if (ssd == nullptr) return report;

  // Cross-structure: snapshot resident pages shard by shard under each
  // shard latch, then probe the SSD (shard latches released first: Probe
  // takes partition latches and needs no pool state).
  std::vector<std::pair<PageId, bool>> resident;
  for (size_t si = 0; si < pool.shards_.size(); ++si) {
    const auto& sh = *pool.shards_[si];
    TrackedLockGuard lock(sh.mu);
    for (PageId pid = 0; pid < pool.page_table_.size(); ++pid) {
      if (pool.ShardOf(pid) != si) continue;
      const int32_t frame = pool.Slot(sh, pid);
      if (frame < 0) continue;
      if (frame < sh.frame_begin || frame >= sh.frame_end) {
        continue;  // already reported by AuditBufferPool
      }
      resident.emplace_back(pid, pool.frames_[frame].dirty);
    }
  }
  for (const auto& [pid, dirty] : resident) {
    if (!dirty) continue;
    // The clean->dirty transition invalidates any SSD copy, and nothing may
    // re-admit the page while the newest version sits dirty in memory.
    if (ssd->Probe(pid) != SsdProbe::kAbsent) {
      report.Add("cross",
                 "page " + PidStr(pid) +
                     " is dirty in the memory pool but the SSD still serves"
                     " a copy (missed invalidation)");
    }
  }
  return report;
}

AuditReport InvariantAuditor::AuditSsdFrameHeaders(const SsdCacheBase& cache) {
  AuditReport report;
  std::vector<uint8_t> buf(cache.ssd_device_->page_bytes());
  for (size_t pi = 0; pi < cache.partitions_.size(); ++pi) {
    const auto& part = *cache.partitions_[pi];
    TrackedLockGuard lock(part.mu);
    for (int32_t rec = 0; rec < part.table.capacity(); ++rec) {
      const SsdFrameRecord& r = part.table.record(rec);
      if (r.state != SsdFrameState::kClean &&
          r.state != SsdFrameState::kDirty) {
        continue;
      }
      const uint64_t frame = static_cast<uint64_t>(part.frame_base + rec);
      const std::string where = "partition " + std::to_string(pi) +
                                " record " + std::to_string(rec) + " (frame " +
                                std::to_string(frame) + ", page " +
                                PidStr(r.page_id) + "): ";
      // Uncharged read: the audit must not perturb virtual time or queues.
      const IoResult res =
          cache.ssd_device_->Read(frame, 1, buf, /*now=*/0, /*charge=*/false);
      if (!res.ok()) {
        report.Add("ssd.frame_headers",
                   where + "device read failed: " + res.status.ToString());
        continue;
      }
      const PageView v(buf.data(), cache.ssd_device_->page_bytes());
      if (!v.VerifyChecksum()) {
        report.Add("ssd.frame_headers",
                   where + "frame content fails its checksum");
        continue;
      }
      if (v.header().page_id != r.page_id) {
        report.Add("ssd.frame_headers", where + "frame header claims page " +
                                            PidStr(v.header().page_id));
      }
      if (r.page_lsn != kInvalidLsn && v.header().lsn != r.page_lsn) {
        report.Add("ssd.frame_headers",
                   where + "frame header LSN " +
                       std::to_string(v.header().lsn) +
                       " != table LSN " + std::to_string(r.page_lsn));
      }
    }
  }
  return report;
}

bool InvariantAuditor::IsLegalTransition(SsdFrameState from, SsdFrameState to) {
  if (from == to) return true;
  switch (from) {
    case SsdFrameState::kFree:
      return to == SsdFrameState::kClean || to == SsdFrameState::kDirty;
    case SsdFrameState::kClean:
      return to == SsdFrameState::kDirty || to == SsdFrameState::kFree ||
             to == SsdFrameState::kInvalid ||
             to == SsdFrameState::kQuarantined;
    case SsdFrameState::kDirty:
      // A dirty frame holds the only up-to-date copy: it may only become
      // clean (after the cleaner's disk write), be dropped when the page
      // is re-dirtied in memory, or be quarantined when the flash cells
      // fail (the page is then recorded as lost).
      return to == SsdFrameState::kClean || to == SsdFrameState::kFree ||
             to == SsdFrameState::kQuarantined;
    case SsdFrameState::kInvalid:
      return to == SsdFrameState::kClean || to == SsdFrameState::kFree ||
             to == SsdFrameState::kQuarantined;
    case SsdFrameState::kQuarantined:
      return false;  // terminal: bad flash cells never return to service
  }
  return false;
}

// ----------------------------------------------------------- AuditAccess

size_t AuditAccess::NumPartitions(const SsdCacheBase& cache) {
  return cache.partitions_.size();
}

size_t AuditAccess::PartitionIndexOf(const SsdCacheBase& cache, PageId pid) {
  const auto& part = cache.PartitionFor(pid);
  for (size_t i = 0; i < cache.partitions_.size(); ++i) {
    if (cache.partitions_[i].get() == &part) return i;
  }
  return cache.partitions_.size();
}

SsdBufferTable& AuditAccess::Table(SsdCacheBase& cache, size_t partition) {
  return cache.partitions_.at(partition)->table;
}

SsdSplitHeap<>& AuditAccess::Heap(SsdCacheBase& cache, size_t partition) {
  return cache.partitions_.at(partition)->heap;
}

std::atomic<int64_t>& AuditAccess::DirtyFrames(SsdCacheBase& cache) {
  return cache.dirty_frames_;
}

void AuditAccess::RebindPageTableEntry(BufferPool& pool, PageId pid,
                                       int32_t frame) {
  auto& sh = *pool.shards_[pool.ShardOf(pid)];
  TrackedLockGuard lock(sh.mu);
  if (pool.Slot(sh, pid) >= 0) pool.UnmapLocked(sh, pid);
  if (frame >= 0) pool.MapLocked(sh, pid, frame);
}

void AuditAccess::SetFramePageId(BufferPool& pool, int32_t frame, PageId pid) {
  auto& sh = *pool.shards_[static_cast<size_t>(pool.frames_[frame].shard)];
  TrackedLockGuard lock(sh.mu);
  pool.frames_[frame].page_id = pid;
}

void AuditAccess::PushFreeList(BufferPool& pool, int32_t frame) {
  auto& sh = *pool.shards_[static_cast<size_t>(pool.frames_[frame].shard)];
  TrackedLockGuard lock(sh.mu);
  sh.free_list.push_back(frame);
}

}  // namespace turbobp

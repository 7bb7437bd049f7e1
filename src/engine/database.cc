#include "engine/database.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/status.h"
#include "storage/page.h"

namespace turbobp {

namespace {

std::unique_ptr<SsdManager> BuildSsdManager(const SystemConfig& config,
                                            StorageDevice* ssd_device,
                                            DiskManager* disk,
                                            SimExecutor* executor) {
  if (config.design == SsdDesign::kNoSsd || ssd_device == nullptr) {
    return std::make_unique<NoSsdManager>();
  }
  SsdCacheOptions opts = config.ssd_options;
  opts.num_frames = config.ssd_frames;
  opts.persistent_cache = config.persistent_ssd_cache;
  switch (config.design) {
    case SsdDesign::kCleanWrite:
      return std::make_unique<CleanWriteCache>(ssd_device, disk, opts,
                                               executor);
    case SsdDesign::kDualWrite:
      return std::make_unique<DualWriteCache>(ssd_device, disk, opts,
                                              executor);
    case SsdDesign::kLazyCleaning:
      return std::make_unique<LazyCleaningCache>(ssd_device, disk, opts,
                                                 executor);
    case SsdDesign::kTac:
      return std::make_unique<TacCache>(ssd_device, disk, opts, executor,
                                        config.db_pages,
                                        config.tac_extent_pages);
    default:
      return std::make_unique<NoSsdManager>();
  }
}

}  // namespace

DbSystem::DbSystem(const SystemConfig& config)
    : config_([&config] {
        SystemConfig c = config;
        c.disk.hdd.page_bytes = c.page_bytes;
        c.log_params.page_bytes = c.page_bytes;
        c.ssd_params.page_bytes = c.page_bytes;
        c.bp_options.page_bytes = c.page_bytes;
        c.bp_options.num_frames = c.bp_frames;
        return c;
      }()),
      disk_array_(std::make_unique<StripedDiskArray>(
          config_.db_pages, config_.page_bytes, config_.disk)),
      ssd_device_(config_.design == SsdDesign::kNoSsd
                      ? nullptr
                      : std::make_unique<SimDevice>(
                            static_cast<uint64_t>(config_.ssd_frames) +
                                (config_.persistent_ssd_cache
                                     ? SsdMetadataJournal::RegionPagesFor(
                                           config_.ssd_frames,
                                           config_.page_bytes)
                                     : 0),
                            config_.page_bytes,
                            std::make_unique<SsdModel>(config_.ssd_params))),
      ssd_fault_device_(config_.inject_ssd_faults && ssd_device_ != nullptr
                            ? std::make_unique<FaultInjectingDevice>(
                                  ssd_device_.get(), config_.ssd_fault_plan)
                            : nullptr),
      log_device_(std::make_unique<SimDevice>(
          config_.log_device_pages, config_.page_bytes,
          std::make_unique<HddModel>(config_.log_params))),
      disk_manager_(disk_array_.get()),
      log_(log_device_.get()),
      ssd_manager_(BuildSsdManager(config_,
                                   ssd_fault_device_ != nullptr
                                       ? static_cast<StorageDevice*>(
                                             ssd_fault_device_.get())
                                       : ssd_device_.get(),
                                   &disk_manager_, &executor_)),
      buffer_pool_(std::make_unique<BufferPool>(
          config_.bp_options, &disk_manager_, &log_, ssd_manager_.get())),
      checkpoint_(std::make_unique<CheckpointManager>(
          buffer_pool_.get(), ssd_manager_.get(), &log_, &executor_)) {
  if (config_.persistent_ssd_cache) {
    // Recover scans the full durable log to judge restored SSD frames;
    // checkpoint-driven WAL prefix truncation would hide updates older than
    // the last checkpoint from that scan.
    checkpoint_->set_wal_truncation(false);
  }
}

void DbSystem::Crash() {
  // The engine's submission queue is volatile: queued-but-unissued requests
  // die with the power, exactly like the pool's dirty frames.
  disk_manager_.io_engine().Reset();
  buffer_pool_->Reset();
  log_.DropUnflushed();
  // The SSD manager restarts empty over the surviving device: the classic
  // designs reformat it (paper, Section 6), the persistent cache re-attaches
  // its journaled contents in Recover. The fault wrapper (and its op clock /
  // offline state) survives the restart: a dying SSD stays dying.
  ssd_manager_ = BuildSsdManager(config_,
                                 ssd_fault_device_ != nullptr
                                     ? static_cast<StorageDevice*>(
                                           ssd_fault_device_.get())
                                     : ssd_device_.get(),
                                 &disk_manager_, &executor_);
  buffer_pool_->set_ssd_manager(ssd_manager_.get());
  checkpoint_->set_ssd_manager(ssd_manager_.get());
}

RecoveryStats DbSystem::Recover(IoContext& ctx,
                                PersistentRestoreStats* restore) {
  // Prune the torn log tail FIRST: the durable horizon used to judge SSD
  // frames must already exclude records that did not survive the crash
  // (otherwise a frame could be admitted against an LSN that is about to be
  // truncated away). The redo pass repeats the call idempotently.
  const size_t truncated = log_.TruncateTornTail();
  PersistentRestoreStats pstats;
  std::unordered_map<PageId, Lsn> covered;
  if (config_.persistent_ssd_cache) {
    // Per-page highest durable update LSN: proves whether a recovered frame
    // is still the newest version of its page (in-memory log scan, no I/O).
    std::unordered_map<PageId, Lsn> max_update_lsn;
    for (const LogRecord& rec : log_.records_for_recovery()) {
      if (!log_.IsDurable(rec.lsn)) break;
      if (rec.type != LogRecordType::kUpdate) continue;
      Lsn& maxl = max_update_lsn[rec.page_id];
      maxl = std::max(maxl, rec.lsn);
    }
    ssd_manager_->RecoverPersistentState(log_.durable_lsn(), ctx,
                                         &max_update_lsn, &covered, &pstats);
  }
  // Records covered by a restored SSD copy are skipped (the SSD already
  // holds them; the cleaner moves them to disk later), so the extended redo
  // horizon (back to the oldest restored dirty frame) costs a log scan, not
  // disk I/O.
  RecoveryManager recovery(&disk_manager_, &log_);
  RecoveryStats stats = recovery.Recover(ctx, pstats.min_dirty_lsn, &covered);
  stats.records_truncated += static_cast<int64_t>(truncated);
  if (restore != nullptr) *restore = pstats;
  return stats;
}

Database::Database(DbSystem* system) : system_(system) {
  TURBOBP_CHECK(system != nullptr);
  InstallSynthesizer();
}

PageId Database::AllocatePages(uint64_t n) {
  TURBOBP_CHECK(n > 0);
  std::lock_guard<std::mutex> lock(alloc_mu_);
  TURBOBP_CHECK(catalog_.next_free_page + n <=
                system_->config().db_pages);
  const PageId first = catalog_.next_free_page;
  catalog_.next_free_page += n;
  return first;
}

void Database::InstallSynthesizer() {
  const uint32_t page_bytes = system_->config().page_bytes;
  // Never-written pages materialize as properly formatted empty pages: heap
  // pages inside a table extent, raw free pages elsewhere. Checksums are
  // sealed so the buffer pool's read verification passes.
  system_->disk_array().SetSynthesizer(
      [this, page_bytes](uint64_t page, std::span<uint8_t> out) {
        PageView v(out.data(), page_bytes);
        PageType type = PageType::kFree;
        for (const auto& [name, t] : catalog_.tables) {
          if (page >= t.first_page && page < t.first_page + t.num_pages) {
            type = PageType::kHeap;
            break;
          }
        }
        v.Format(static_cast<PageId>(page), type);
        v.SealChecksum();
      });
}

}  // namespace turbobp

#ifndef TURBOBP_ENGINE_DATABASE_H_
#define TURBOBP_ENGINE_DATABASE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "core/clean_write.h"
#include "core/dual_write.h"
#include "core/lazy_cleaning.h"
#include "core/ssd_manager.h"
#include "core/tac.h"
#include "fault/fault_injecting_device.h"
#include "fault/fault_plan.h"
#include "io/async_io_engine.h"
#include "sim/sim_executor.h"
#include "storage/disk_manager.h"
#include "storage/sim_device.h"
#include "storage/striped_array.h"
#include "wal/checkpoint.h"
#include "wal/log_manager.h"
#include "wal/recovery.h"

namespace turbobp {

// ---------------------------------------------------------------- Catalog

struct TableInfo {
  std::string name;
  PageId first_page = kInvalidPageId;
  uint64_t num_pages = 0;      // preallocated contiguous extent
  uint32_t row_bytes = 0;
  uint64_t rows_per_page = 0;
  uint64_t row_count = 0;      // rows appended so far
};

struct BTreeInfo {
  std::string name;
  PageId root = kInvalidPageId;
  uint64_t height = 0;
  uint64_t num_entries = 0;
};

// All metadata that a real DBMS would keep in system pages. Kept as a plain
// value type so benchmark fixtures can snapshot it alongside the device
// contents and re-attach it for each design run.
struct Catalog {
  uint64_t next_free_page = 1;  // page 0 reserved
  std::map<std::string, TableInfo> tables;
  std::map<std::string, BTreeInfo> btrees;
};

// ----------------------------------------------------------------- System

// Everything below the catalog: devices, log, buffer pool, SSD manager of
// the requested design, checkpointing and recovery — wired the way the
// paper's Figure 1 shows. This is the type examples and benches construct.
struct SystemConfig {
  uint32_t page_bytes = 8192;
  uint64_t db_pages = 1 << 16;     // data volume size (pages)
  uint64_t bp_frames = 1 << 12;    // main-memory buffer pool
  int64_t ssd_frames = 1 << 14;    // SSD buffer pool (S); ignored for noSSD
  SsdDesign design = SsdDesign::kNoSsd;
  StripedDiskArray::Options disk;  // 8 spindles by default
  SsdParams ssd_params;
  HddParams log_params;            // dedicated log disk
  uint64_t log_device_pages = 1 << 20;
  SsdCacheOptions ssd_options;     // tau/mu/N/alpha/lambda (Table 2)
  BufferPool::Options bp_options;  // page_bytes/num_frames overwritten
  int tac_extent_pages = 32;
  // Persistent SSD cache: the SSD device is enlarged by the metadata
  // journal region and the cache journals its buffer table there, so
  // DbSystem::Recover re-attaches the surviving SSD contents (warm restart)
  // instead of reformatting.
  bool persistent_ssd_cache = false;
  // Fault injection (src/fault): when enabled, the SSD device is wrapped in
  // a FaultInjectingDevice driven by `ssd_fault_plan`. The disk array and
  // the log device are never wrapped — the paper's safety argument (and
  // this subsystem) is about surviving the *SSD*, the non-redundant
  // commodity part of the stack.
  bool inject_ssd_faults = false;
  FaultPlan ssd_fault_plan = FaultPlan::Healthy();
};

class DbSystem {
 public:
  explicit DbSystem(const SystemConfig& config);
  DbSystem(const DbSystem&) = delete;
  DbSystem& operator=(const DbSystem&) = delete;

  const SystemConfig& config() const { return config_; }
  SimExecutor& executor() { return executor_; }
  StripedDiskArray& disk_array() { return *disk_array_; }
  SimDevice* ssd_device() { return ssd_device_.get(); }  // null for noSSD
  SimDevice* log_device() { return log_device_.get(); }
  // Non-null iff config.inject_ssd_faults and the design uses an SSD.
  FaultInjectingDevice* ssd_fault() { return ssd_fault_device_.get(); }
  DiskManager& disk_manager() { return disk_manager_; }
  // The disk manager's async engine (depth 32, DESIGN.md §12); never null.
  AsyncIoEngine* disk_io_engine() { return &disk_manager_.io_engine(); }
  LogManager& log() { return log_; }
  SsdManager& ssd_manager() { return *ssd_manager_; }
  BufferPool& buffer_pool() { return *buffer_pool_; }
  CheckpointManager& checkpoint() { return *checkpoint_; }

  // Makes an IoContext bound to this system's executor at the current
  // virtual time.
  IoContext MakeContext(bool charge = true) {
    IoContext ctx;
    ctx.now = executor_.now();
    ctx.executor = &executor_;
    ctx.charge = charge;
    return ctx;
  }

  // Crash simulation: drops the buffer pool (losing un-flushed dirty pages)
  // and the SSD manager's in-memory table, and truncates the log to its
  // durable prefix. Device contents survive.
  void Crash();

  // Restart recovery: prunes the torn log tail, then redoes the durable log
  // from the last completed checkpoint. With config.persistent_ssd_cache it
  // first warms the SSD cache from its metadata journal: every recovered
  // mapping is reconciled against the WAL durable horizon (frames whose LSN
  // exceeds it are never re-attached) and against the per-page highest
  // durable update LSN, the survivors are re-attached, and redo skips the
  // records that restored dirty frames already contain. `restore`, if
  // given, receives the journal outcome (left default without the
  // persistent cache). Runs once per restart: on a freshly built system or
  // right after Crash().
  RecoveryStats Recover(IoContext& ctx,
                        PersistentRestoreStats* restore = nullptr);

 private:
  SystemConfig config_;
  SimExecutor executor_;
  std::unique_ptr<StripedDiskArray> disk_array_;
  std::unique_ptr<SimDevice> ssd_device_;
  std::unique_ptr<FaultInjectingDevice> ssd_fault_device_;
  std::unique_ptr<SimDevice> log_device_;
  DiskManager disk_manager_;
  LogManager log_;
  std::unique_ptr<SsdManager> ssd_manager_;
  std::unique_ptr<BufferPool> buffer_pool_;
  std::unique_ptr<CheckpointManager> checkpoint_;
};

// --------------------------------------------------------------- Database

// Catalog operations and page allocation over a DbSystem. Installs a
// device synthesizer that materializes never-written pages as
// properly-formatted empty pages, so table extents do not need to be
// physically initialized at creation time.
class Database {
 public:
  explicit Database(DbSystem* system);

  DbSystem& system() { return *system_; }
  BufferPool& pool() { return system_->buffer_pool(); }
  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  uint32_t page_bytes() const { return system_->config().page_bytes; }

  // Allocates `n` contiguous pages; returns the first id. Thread-safe:
  // real-thread clients split different B+-trees concurrently.
  PageId AllocatePages(uint64_t n);

  // Benchmark fixtures snapshot the catalog after population and re-attach
  // it to a fresh DbSystem over restored device contents.
  void RestoreCatalog(const Catalog& catalog) { catalog_ = catalog; }

 private:
  void InstallSynthesizer();

  DbSystem* system_;
  Catalog catalog_;
  std::mutex alloc_mu_;  // guards catalog_.next_free_page in AllocatePages
};

}  // namespace turbobp

#endif  // TURBOBP_ENGINE_DATABASE_H_

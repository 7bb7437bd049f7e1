#include "micro.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/checksum.h"
#include "core/ssd_buffer_table.h"
#include "core/ssd_heap.h"
#include "storage/mem_device.h"
#include "trace.h"

namespace perfbench {
namespace {

using turbobp::AccessKind;
using turbobp::IoContext;
using turbobp::PageId;
using turbobp::Rng;

// Keeps loop results observable so the compiler cannot drop the work.
volatile uint64_t g_sink = 0;

// Median host ns per call of `body(i)` over `reps` timed passes of `n`
// calls each (the median pass damps scheduler hiccups).
template <typename Fn>
double NsPerCall(int n, Fn&& body, int reps = 5) {
  std::vector<double> passes;
  for (int r = 0; r < reps; ++r) {
    const int64_t t0 = NowNs();
    for (int i = 0; i < n; ++i) body(i);
    passes.push_back(static_cast<double>(NowNs() - t0) / n);
  }
  std::nth_element(passes.begin(), passes.begin() + reps / 2, passes.end());
  return passes[static_cast<size_t>(reps / 2)];
}

}  // namespace

std::vector<Metric> IsolatedLayerLoops(turbobp::DbSystem& system,
                                       turbobp::Database& db, uint64_t seed) {
  std::vector<Metric> out;
  const uint32_t page_bytes = system.config().page_bytes;
  Rng rng(seed * 7919 + 17);
  IoContext ctx = system.MakeContext(/*charge=*/false);

  // common: CRC32C over one page.
  {
    std::vector<uint8_t> page(page_bytes);
    for (auto& b : page) b = static_cast<uint8_t>(rng.Next());
    out.push_back({"common.crc_ns_per_page", NsPerCall(4000, [&](int i) {
                     g_sink = g_sink + turbobp::Crc32c(page.data(), page.size(),
                                                       static_cast<uint32_t>(i));
                   }),
                   "ns"});
  }

  // buffer: FetchPage hits on pages resident after the run.
  {
    turbobp::BufferPool& pool = system.buffer_pool();
    std::vector<PageId> resident;
    for (PageId pid = 0; pid < system.config().db_pages && resident.size() < 4096;
         ++pid) {
      if (pool.Contains(pid)) resident.push_back(pid);
    }
    double ns = 0.0;
    if (!resident.empty()) {
      ns = NsPerCall(20000, [&](int i) {
        turbobp::PageGuard g = pool.FetchPage(
            resident[static_cast<size_t>(i) % resident.size()],
            AccessKind::kRandom, ctx);
        g_sink = g_sink + g.page_id();
      });
    }
    out.push_back({"buffer.fetch_hit_ns", ns, "ns"});
  }

  // engine: heap-row reads and B+-tree searches over pool-resident pages
  // (one untimed pass first pulls the touched pages in).
  {
    const auto& tables = db.catalog().tables;
    double heap_ns = 0.0;
    if (!tables.empty()) {
      turbobp::HeapFile heap =
          turbobp::HeapFile::Attach(&db, tables.begin()->first);
      const uint64_t rows = std::min<uint64_t>(heap.row_count(), 256);
      std::vector<uint8_t> row(heap.info().row_bytes);
      auto read = [&](int i) {
        heap.Read(heap.RidOfRow(static_cast<uint64_t>(i) % rows), row,
                  AccessKind::kRandom, ctx);
        g_sink = g_sink + row[0];
      };
      if (rows > 0) {
        for (uint64_t i = 0; i < rows; ++i) read(static_cast<int>(i));
        heap_ns = NsPerCall(20000, read);
      }
    }
    out.push_back({"engine.heap_read_ns", heap_ns, "ns"});

    const auto& trees = db.catalog().btrees;
    double tree_ns = 0.0;
    if (!trees.empty()) {
      turbobp::BPlusTree tree =
          turbobp::BPlusTree::Attach(&db, trees.begin()->first);
      std::vector<uint64_t> keys(1024);
      for (auto& k : keys) k = rng.Next() % (tree.num_entries() + 1);
      auto search = [&](int i) {
        uint64_t v = 0;
        g_sink = g_sink + tree.Search(keys[static_cast<size_t>(i) % keys.size()],
                                      &v, ctx);
      };
      for (size_t i = 0; i < keys.size(); ++i) search(static_cast<int>(i));
      tree_ns = NsPerCall(20000, search);
    }
    out.push_back({"engine.btree_search_ns", tree_ns, "ns"});
  }

  // core: one SSD partition's buffer table (hash lookup, half hits) and
  // split heap (clean-side victim pop), sized like the live cache's.
  {
    const int32_t cap = static_cast<int32_t>(std::max<int64_t>(
        1024, system.config().ssd_frames /
                  system.config().ssd_options.num_partitions));
    turbobp::SsdBufferTable table(cap);
    std::vector<PageId> present;
    for (int32_t i = 0; i < cap; ++i) {
      const int32_t rec = table.PopFree();
      const PageId pid = rng.Next() % (system.config().db_pages * 4);
      table.record(rec).page_id = pid;
      table.record(rec).Touch(static_cast<turbobp::Time>(rng.Uniform(1 << 30)));
      table.record(rec).Touch(static_cast<turbobp::Time>(rng.Uniform(1 << 30)));
      table.InsertHash(rec);
      present.push_back(pid);
    }
    std::vector<PageId> probes(4096);
    for (size_t i = 0; i < probes.size(); ++i) {
      probes[i] = i % 2 == 0 ? present[rng.Uniform(present.size())]
                             : rng.Next() % (system.config().db_pages * 4);
    }
    out.push_back({"core.table_lookup_ns", NsPerCall(20000, [&](int i) {
                     g_sink = g_sink + static_cast<uint64_t>(table.Lookup(
                                           probes[static_cast<size_t>(i) %
                                                  probes.size()]));
                   }),
                   "ns"});

    turbobp::SsdSplitHeap heap(&table, [&table](int32_t rec) {
      return static_cast<double>(table.record(rec).Lru2Key());
    });
    std::vector<double> passes;
    for (int pass = 0; pass < 5; ++pass) {
      for (int32_t rec = 0; rec < cap; ++rec) heap.InsertClean(rec);
      const int64_t t0 = NowNs();
      while (heap.clean_size() > 0) heap.Remove(heap.CleanRoot());
      passes.push_back(static_cast<double>(NowNs() - t0) / cap);
    }
    std::nth_element(passes.begin(), passes.begin() + 2, passes.end());
    out.push_back({"core.heap_victim_pop_ns", passes[2], "ns"});
  }

  // wal: appends of a TPC-C-sized after-image, then commit + flush pairs,
  // on a private log over a memory device.
  {
    turbobp::MemDevice log_device(1 << 16, page_bytes);
    turbobp::LogManager log(&log_device);
    std::vector<uint8_t> image(48, 0x5a);
    out.push_back({"wal.append_ns", NsPerCall(4000, [&](int i) {
                     g_sink = g_sink + log.AppendUpdate(
                                           1, static_cast<PageId>(i), 64, image);
                   }),
                   "ns"});
    out.push_back({"wal.flush_ns", NsPerCall(2000, [&](int i) {
                     log.AppendUpdate(2, static_cast<PageId>(i), 64, image);
                     g_sink = g_sink + static_cast<uint64_t>(
                                           log.FlushTo(log.AppendCommit(2), ctx));
                   }),
                   "ns"});
  }

  // storage: single-page disk-array reads, then writes of the same bytes.
  {
    turbobp::StorageDevice& disks = system.disk_array();
    const uint64_t n = 4096;
    std::vector<uint8_t> pages(n * page_bytes);
    std::vector<uint64_t> pids(n);
    for (auto& p : pids) p = rng.Uniform(system.config().db_pages);
    auto span_of = [&](size_t i) {
      return std::span<uint8_t>(pages.data() + i * page_bytes, page_bytes);
    };
    out.push_back({"storage.dev_read_ns", NsPerCall(static_cast<int>(n), [&](int i) {
                     const size_t k = static_cast<size_t>(i);
                     g_sink = g_sink + static_cast<uint64_t>(
                                           disks.Read(pids[k], 1, span_of(k), 0,
                                                      /*charge=*/false)
                                               .time);
                   }),
                   "ns"});
    out.push_back({"storage.dev_write_ns",
                   NsPerCall(static_cast<int>(n), [&](int i) {
                     const size_t k = static_cast<size_t>(i);
                     g_sink = g_sink + static_cast<uint64_t>(
                                           disks.Write(pids[k], 1, span_of(k), 0,
                                                       /*charge=*/false)
                                               .time);
                   }),
                   "ns"});
  }
  return out;
}

}  // namespace perfbench

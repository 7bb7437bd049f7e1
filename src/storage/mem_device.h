#ifndef TURBOBP_STORAGE_MEM_DEVICE_H_
#define TURBOBP_STORAGE_MEM_DEVICE_H_

#include <functional>
#include <memory>
#include <vector>

#include "debug/latch_order_checker.h"
#include "storage/storage_device.h"

namespace turbobp {

// In-memory page store with zero service time. Serves three roles:
//   * the correctness substrate for unit tests,
//   * the backing store of SimDevice (which adds a latency model),
//   * a lazily-materialized store: pages never written are synthesized on
//     first read by a caller-provided function, so a "400GB" logical
//     database costs only its written working set in RAM.
//
// Storage is a flat directory of fixed-size chunks (kChunkPages contiguous
// page slots plus a written-slot mask), each allocated on the first write
// that lands in it, so memory is proportional to the chunks written. A read
// is an index plus a memcpy. Chunks are shared copy-on-write with content
// snapshots (crash capture): a snapshot copies the directory's pointers,
// and a write clones a chunk that a snapshot still references.
class MemDevice : public StorageDevice {
 public:
  // Fills `out` with the initial (never-written) content of `page`.
  using Synthesizer = std::function<void(uint64_t page, std::span<uint8_t> out)>;

  // Page slots per chunk (one bit each in the written mask).
  static constexpr uint32_t kChunkPages = 64;

  class Content;

  MemDevice(uint64_t num_pages, uint32_t page_bytes);

  void SetSynthesizer(Synthesizer s) { synthesizer_ = std::move(s); }

  uint64_t num_pages() const override { return num_pages_; }
  uint32_t page_bytes() const override { return page_bytes_; }

  IoResult Read(uint64_t first_page, uint32_t num_pages,
                std::span<uint8_t> out, Time now, bool charge = true) override;
  IoResult Write(uint64_t first_page, uint32_t num_pages,
                 std::span<const uint8_t> data, Time now,
                 bool charge = true) override;

  // Whether the page has ever been written (vs. synthesized-on-read).
  bool IsMaterialized(uint64_t page) const;
  size_t materialized_pages() const;

  // Drops all written content (simulates reformatting the device).
  void Clear();

  // Crash simulation (src/fault/crash_harness): the written pages, exactly
  // the bytes a power cut at this instant would leave on the medium. The
  // snapshot shares chunks with the device, so it costs one pointer per
  // chunk; later writes to either side never show through to the other.
  // Restore replaces the whole content; an empty (default) Content wipes
  // the device, any other must come from a device of the same geometry.
  Content SnapshotContent() const;
  void RestoreContent(Content content);

 private:
  struct Chunk;
  using Directory = std::vector<std::shared_ptr<Chunk>>;

  // The chunk holding `page` ready for a write: allocated if absent, cloned
  // if a snapshot shares it.
  Chunk& WritableChunk(uint64_t page) TURBOBP_REQUIRES(mu_);

  const uint64_t num_pages_;
  const uint32_t page_bytes_;
  Synthesizer synthesizer_;
  mutable TrackedMutex<LatchClass::kDevice> mu_;
  Directory chunks_ TURBOBP_GUARDED_BY(mu_);
};

// Opaque written content of a MemDevice (see SnapshotContent).
class MemDevice::Content {
 public:
  Content() = default;

 private:
  friend class MemDevice;
  uint64_t num_pages_ = 0;
  uint32_t page_bytes_ = 0;
  Directory chunks_;  // empty: a wiped device
};

}  // namespace turbobp

#endif  // TURBOBP_STORAGE_MEM_DEVICE_H_

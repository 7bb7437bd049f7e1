#include "storage/mem_device.h"

#include <bit>
#include <cstring>
#include <memory>

#include "common/status.h"

namespace turbobp {

struct MemDevice::Chunk {
  explicit Chunk(uint32_t page_bytes)
      : bytes(std::make_unique_for_overwrite<uint8_t[]>(
            static_cast<size_t>(kChunkPages) * page_bytes)) {}

  uint64_t written = 0;  // bit i: slot i holds a written page
  // Set, under the owning device's latch, when a snapshot first references
  // the chunk. A shared chunk is never written again (Write clones it), so
  // its bytes need no synchronization with the devices that read it.
  bool shared = false;
  // kChunkPages page slots; a slot's bytes are undefined until written.
  std::unique_ptr<uint8_t[]> bytes;
};

MemDevice::MemDevice(uint64_t num_pages, uint32_t page_bytes)
    : num_pages_(num_pages),
      page_bytes_(page_bytes),
      chunks_((num_pages + kChunkPages - 1) / kChunkPages) {
  TURBOBP_CHECK(page_bytes > 0);
}

MemDevice::Chunk& MemDevice::WritableChunk(uint64_t page) {
  std::shared_ptr<Chunk>& c = chunks_[page / kChunkPages];
  if (c == nullptr) {
    c = std::make_shared<Chunk>(page_bytes_);
  } else if (c->shared) {
    // Copy-on-write: the snapshot keeps the old chunk. Only written slots
    // are copied, so untouched slots stay unbacked.
    auto clone = std::make_shared<Chunk>(page_bytes_);
    clone->written = c->written;
    for (uint64_t m = c->written; m != 0; m &= m - 1) {
      const size_t off = static_cast<size_t>(std::countr_zero(m)) * page_bytes_;
      std::memcpy(clone->bytes.get() + off, c->bytes.get() + off, page_bytes_);
    }
    c = std::move(clone);
  }
  return *c;
}

IoResult MemDevice::Read(uint64_t first_page, uint32_t num_pages,
                         std::span<uint8_t> out, Time now, bool charge) {
  TURBOBP_CHECK(first_page + num_pages <= num_pages_);
  TURBOBP_CHECK(out.size() >= static_cast<size_t>(num_pages) * page_bytes_);
  TrackedLockGuard lock(mu_);
  for (uint32_t i = 0; i < num_pages; ++i) {
    const uint64_t page = first_page + i;
    const std::span<uint8_t> dst =
        out.subspan(static_cast<size_t>(i) * page_bytes_, page_bytes_);
    const Chunk* c = chunks_[page / kChunkPages].get();
    const uint32_t slot = page % kChunkPages;
    if (c != nullptr && ((c->written >> slot) & 1) != 0) {
      std::memcpy(dst.data(),
                  c->bytes.get() + static_cast<size_t>(slot) * page_bytes_,
                  page_bytes_);
    } else if (synthesizer_) {
      synthesizer_(page, dst);
    } else {
      std::memset(dst.data(), 0, page_bytes_);
    }
  }
  return IoResult{now, Status::Ok()};
}

IoResult MemDevice::Write(uint64_t first_page, uint32_t num_pages,
                          std::span<const uint8_t> data, Time now,
                          bool charge) {
  TURBOBP_CHECK(first_page + num_pages <= num_pages_);
  TURBOBP_CHECK(data.size() >= static_cast<size_t>(num_pages) * page_bytes_);
  TrackedLockGuard lock(mu_);
  for (uint32_t i = 0; i < num_pages; ++i) {
    const uint64_t page = first_page + i;
    Chunk& c = WritableChunk(page);
    const uint32_t slot = page % kChunkPages;
    std::memcpy(c.bytes.get() + static_cast<size_t>(slot) * page_bytes_,
                data.data() + static_cast<size_t>(i) * page_bytes_,
                page_bytes_);
    c.written |= uint64_t{1} << slot;
  }
  return IoResult{now, Status::Ok()};
}

bool MemDevice::IsMaterialized(uint64_t page) const {
  TURBOBP_CHECK(page < num_pages_);
  TrackedLockGuard lock(mu_);
  const Chunk* c = chunks_[page / kChunkPages].get();
  return c != nullptr && ((c->written >> (page % kChunkPages)) & 1) != 0;
}

size_t MemDevice::materialized_pages() const {
  TrackedLockGuard lock(mu_);
  size_t n = 0;
  for (const auto& c : chunks_) {
    if (c != nullptr) n += static_cast<size_t>(std::popcount(c->written));
  }
  return n;
}

void MemDevice::Clear() {
  TrackedLockGuard lock(mu_);
  chunks_.assign(chunks_.size(), nullptr);
}

MemDevice::Content MemDevice::SnapshotContent() const {
  TrackedLockGuard lock(mu_);
  Content content;
  content.num_pages_ = num_pages_;
  content.page_bytes_ = page_bytes_;
  content.chunks_ = chunks_;
  for (const auto& c : chunks_) {
    // Written only while the flag is clear, i.e. while this device alone
    // holds the chunk.
    if (c != nullptr && !c->shared) c->shared = true;
  }
  return content;
}

void MemDevice::RestoreContent(Content content) {
  TrackedLockGuard lock(mu_);
  if (content.chunks_.empty()) {
    chunks_.assign(chunks_.size(), nullptr);
    return;
  }
  TURBOBP_CHECK(content.num_pages_ == num_pages_);
  TURBOBP_CHECK(content.page_bytes_ == page_bytes_);
  // Every chunk of a snapshot is already marked shared.
  chunks_ = std::move(content.chunks_);
}

}  // namespace turbobp

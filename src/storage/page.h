#ifndef TURBOBP_STORAGE_PAGE_H_
#define TURBOBP_STORAGE_PAGE_H_

#include <cstring>
#include <span>

#include "common/checksum.h"
#include "common/status.h"
#include "common/types.h"

namespace turbobp {

enum class PageType : uint16_t {
  kFree = 0,
  kMeta = 1,
  kHeap = 2,
  kBTreeLeaf = 3,
  kBTreeInner = 4,
  kRaw = 5,  // pages written directly by tests / synthetic workloads
};

// On-page header, stored at offset 0 of every database page. The checksum
// covers the payload (everything after the header). It is sealed where a
// dirty image leaves memory and verified once where bytes enter from a
// device, so a stale or corrupt copy on the SSD or the disk is caught at the
// point it is read.
struct PageHeader {
  PageId page_id = kInvalidPageId;
  Lsn lsn = kInvalidLsn;          // LSN of the last update (WAL rule input)
  uint64_t version = 0;           // bumped on every modification; test oracle
  uint32_t checksum = 0;
  PageType type = PageType::kFree;
  uint16_t slot_count = 0;
  uint32_t free_offset = 0;       // start of unallocated payload space
  uint32_t reserved = 0;
};
static_assert(sizeof(PageHeader) == 40);

inline constexpr uint32_t kPageHeaderSize = sizeof(PageHeader);

// Typed view over one page's bytes. Does not own the storage.
class PageView {
 public:
  PageView(uint8_t* data, uint32_t page_bytes)
      : data_(data), page_bytes_(page_bytes) {}
  explicit PageView(std::span<uint8_t> bytes)
      : data_(bytes.data()), page_bytes_(static_cast<uint32_t>(bytes.size())) {}

  PageHeader& header() { return *reinterpret_cast<PageHeader*>(data_); }
  const PageHeader& header() const {
    return *reinterpret_cast<const PageHeader*>(data_);
  }

  uint8_t* payload() { return data_ + kPageHeaderSize; }
  const uint8_t* payload() const { return data_ + kPageHeaderSize; }
  uint32_t payload_bytes() const { return page_bytes_ - kPageHeaderSize; }

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  uint32_t page_bytes() const { return page_bytes_; }

  // Initializes a fresh page of the given type.
  void Format(PageId id, PageType type) {
    std::memset(data_, 0, page_bytes_);
    PageHeader& h = header();
    h.page_id = id;
    h.type = type;
    h.free_offset = 0;
  }

  uint32_t ComputeChecksum() const {
    return Crc32c(payload(), payload_bytes());
  }
  void SealChecksum() { header().checksum = ComputeChecksum(); }
  bool VerifyChecksum() const { return header().checksum == ComputeChecksum(); }
  // The one check every page image gets where it enters from a device: it
  // names `pid` and its payload matches the sealed checksum.
  bool IsIntactCopyOf(PageId pid) const {
    return header().page_id == pid && VerifyChecksum();
  }

 private:
  uint8_t* data_;
  uint32_t page_bytes_;
};

}  // namespace turbobp

#endif  // TURBOBP_STORAGE_PAGE_H_

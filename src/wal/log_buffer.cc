#include "wal/log_buffer.h"

#include <algorithm>
#include <cstring>

#include "common/checksum.h"
#include "common/status.h"

namespace turbobp {
namespace {

// Byte offsets of the header fields (layout in log_buffer.h).
constexpr size_t kLsnAt = 0;
constexpr size_t kTypeAt = 8;
constexpr size_t kTxnAt = 9;
constexpr size_t kPageAt = 17;
constexpr size_t kOffsetAt = 25;
constexpr size_t kLengthAt = 29;
constexpr size_t kCrcAt = 32;
static_assert(kLengthAt == kLogCrcCoveredHeaderBytes);
static_assert(kCrcAt + sizeof(uint32_t) == kLogHeaderBytes);

template <typename T>
void Put(uint8_t* at, T value) {
  std::memcpy(at, &value, sizeof(value));
}

template <typename T>
T Get(const uint8_t* at) {
  T value;
  std::memcpy(&value, at, sizeof(value));
  return value;
}

// The CRC-covered header prefix: every fixed field but the length.
void PutCoveredHeader(uint8_t* h, Lsn lsn, LogRecordType type, uint64_t txn_id,
                      PageId page_id, uint32_t offset) {
  Put(h + kLsnAt, lsn);
  h[kTypeAt] = static_cast<uint8_t>(type);
  Put(h + kTxnAt, txn_id);
  Put(h + kPageAt, page_id);
  Put(h + kOffsetAt, offset);
}

uint32_t PayloadLength(const uint8_t* h) {
  return uint32_t{h[kLengthAt]} | uint32_t{h[kLengthAt + 1]} << 8 |
         uint32_t{h[kLengthAt + 2]} << 16;
}

uint32_t Checksum(const uint8_t* h, std::span<const uint8_t> payload) {
  return Crc32c(payload.data(), payload.size(),
                Crc32c(h, kLogCrcCoveredHeaderBytes));
}

LogRecordView Decode(const uint8_t* h) {
  LogRecordView v;
  v.lsn = Get<Lsn>(h + kLsnAt);
  v.type = static_cast<LogRecordType>(h[kTypeAt]);
  v.txn_id = Get<uint64_t>(h + kTxnAt);
  v.page_id = Get<PageId>(h + kPageAt);
  v.offset = Get<uint32_t>(h + kOffsetAt);
  v.checksum = Get<uint32_t>(h + kCrcAt);
  v.bytes = std::span<const uint8_t>(h + kLogHeaderBytes, PayloadLength(h));
  return v;
}

}  // namespace

uint32_t LogRecord::ComputeChecksum() const {
  uint8_t header[kLogCrcCoveredHeaderBytes];
  PutCoveredHeader(header, lsn, type, txn_id, page_id, offset);
  return Checksum(header, bytes);
}

LogRecord LogRecordView::ToRecord() const {
  return LogRecord{.lsn = lsn,
                   .type = type,
                   .txn_id = txn_id,
                   .page_id = page_id,
                   .offset = offset,
                   .checksum = checksum,
                   .bytes = {bytes.begin(), bytes.end()}};
}

void LogBuffer::Append(Lsn lsn, LogRecordType type, uint64_t txn_id,
                       PageId page_id, uint32_t offset,
                       std::span<const uint8_t> payload) {
  const size_t size = kLogHeaderBytes + payload.size();
  TURBOBP_CHECK(payload.size() <= kMaxLogPayloadBytes && size <= kSegmentBytes);
  TURBOBP_DCHECK(lsn >= end_lsn());
  if (segs_.empty() || segs_.back().end() != lsn ||
      kSegmentBytes - segs_.back().used < size) {
    segs_.push_back(Segment{.bytes = NewSegmentBytes(), .first = lsn});
  }
  Segment& tail = segs_.back();
  uint8_t* h = Writable(segs_.size() - 1) + tail.used;
  PutCoveredHeader(h, lsn, type, txn_id, page_id, offset);
  const auto length = static_cast<uint32_t>(payload.size());
  h[kLengthAt] = static_cast<uint8_t>(length);
  h[kLengthAt + 1] = static_cast<uint8_t>(length >> 8);
  h[kLengthAt + 2] = static_cast<uint8_t>(length >> 16);
  if (!payload.empty()) {
    std::memcpy(h + kLogHeaderBytes, payload.data(), payload.size());
  }
  Put(h + kCrcAt, Checksum(h, payload));
  tail.used += static_cast<uint32_t>(size);
}

bool LogBuffer::Verify(const Iterator& it, uint32_t max_payload) const {
  const Segment& s = segs_[it.seg_];
  const uint64_t room = s.end() - it.lsn_;
  if (room < kLogHeaderBytes) return false;
  const uint8_t* h = it.data();
  if (Get<Lsn>(h + kLsnAt) != it.lsn_) return false;
  const uint8_t type = h[kTypeAt];
  if (type > static_cast<uint8_t>(LogRecordType::kEndCheckpoint)) return false;
  const uint32_t length = PayloadLength(h);
  if (length > room - kLogHeaderBytes) return false;
  if (type == static_cast<uint8_t>(LogRecordType::kUpdate)) {
    if (uint64_t{Get<uint32_t>(h + kOffsetAt)} + length > max_payload) {
      return false;
    }
  } else if (length != 0) {
    return false;
  }
  return Get<uint32_t>(h + kCrcAt) ==
         Checksum(h, std::span<const uint8_t>(h + kLogHeaderBytes, length));
}

void LogBuffer::DropHead(Lsn lsn) {
  TURBOBP_DCHECK(lsn >= head_);
  head_ = lsn;
  DropDeadSegments();
}

void LogBuffer::CutTail(Lsn lsn) {
  TURBOBP_DCHECK(lsn >= head_);
  while (!segs_.empty() && segs_.back().first >= lsn) {
    Recycle(std::move(segs_.back().bytes));
    segs_.pop_back();
  }
  if (!segs_.empty() && segs_.back().end() > lsn) {
    segs_.back().used = static_cast<uint32_t>(lsn - segs_.back().first);
  }
  DropDeadSegments();
}

void LogBuffer::FlipByte(Lsn lsn, uint8_t mask) {
  const size_t i = Locate(lsn);
  TURBOBP_CHECK(i < segs_.size());
  Writable(i)[lsn - segs_[i].first] ^= mask;
}

LogBuffer::Iterator LogBuffer::begin() const {
  if (segs_.empty()) return end();
  return Iterator(&segs_, 0, std::max(head_, segs_.front().first));
}

LogBuffer::Iterator LogBuffer::end() const {
  return Iterator(&segs_, segs_.size(), 0);
}

LogBuffer::Iterator LogBuffer::At(Lsn lsn) const {
  const size_t i = Locate(lsn);
  TURBOBP_CHECK(i < segs_.size() && lsn >= head_);
  return Iterator(&segs_, i, lsn);
}

std::vector<std::pair<Lsn, Lsn>> LogBuffer::segment_extents() const {
  std::vector<std::pair<Lsn, Lsn>> out;
  out.reserve(segs_.size());
  for (const Segment& s : segs_) out.emplace_back(s.first, s.end());
  return out;
}

size_t LogBuffer::Locate(Lsn lsn) const {
  const auto it =
      std::upper_bound(segs_.begin(), segs_.end(), lsn,
                       [](Lsn l, const Segment& s) { return l < s.first; });
  if (it == segs_.begin()) return segs_.size();
  const auto i = static_cast<size_t>(it - segs_.begin()) - 1;
  return lsn < segs_[i].end() ? i : segs_.size();
}

uint8_t* LogBuffer::Writable(size_t i) {
  Segment& s = segs_[i];
  if (s.bytes.use_count() > 1) {
    // Copy-on-write: the other copies keep the old segment. Only the used
    // bytes are copied; the rest is written before it is read.
    std::shared_ptr<uint8_t[]> clone = NewSegmentBytes();
    std::memcpy(clone.get(), s.bytes.get(), s.used);
    s.bytes = std::move(clone);
  }
  return s.bytes.get();
}

void LogBuffer::DropDeadSegments() {
  size_t dead = 0;
  while (dead < segs_.size() && segs_[dead].end() <= head_) {
    Recycle(std::move(segs_[dead].bytes));
    ++dead;
  }
  segs_.erase(segs_.begin(), segs_.begin() + static_cast<ptrdiff_t>(dead));
}

std::shared_ptr<uint8_t[]> LogBuffer::NewSegmentBytes() {
  if (spares_.list.empty()) {
    return std::make_shared_for_overwrite<uint8_t[]>(kSegmentBytes);
  }
  std::shared_ptr<uint8_t[]> bytes = std::move(spares_.list.back());
  spares_.list.pop_back();
  return bytes;
}

void LogBuffer::Recycle(std::shared_ptr<uint8_t[]> bytes) {
  if (bytes.use_count() == 1) spares_.list.push_back(std::move(bytes));
}

LogRecordView LogBuffer::Iterator::operator*() const { return Decode(data()); }

LogBuffer::Iterator& LogBuffer::Iterator::operator++() {
  const Segment& s = (*segs_)[seg_];
  lsn_ += kLogHeaderBytes + PayloadLength(data());
  // A record never spans segments, and no record starts in a segment's
  // last kLogHeaderBytes - 1 bytes.
  if (lsn_ + kLogHeaderBytes > s.end()) {
    ++seg_;
    lsn_ = seg_ < segs_->size() ? (*segs_)[seg_].first : 0;
  }
  return *this;
}

}  // namespace turbobp

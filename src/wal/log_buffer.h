#ifndef TURBOBP_WAL_LOG_BUFFER_H_
#define TURBOBP_WAL_LOG_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/types.h"

namespace turbobp {

enum class LogRecordType : uint8_t {
  kUpdate = 0,      // physical redo: bytes at (page_id, offset)
  kCommit = 1,
  kBeginCheckpoint = 2,
  kEndCheckpoint = 3,
};

// A serialized log record, in host byte order. LSNs are byte offsets into
// the log, so a record's LSN is also where its first byte sits:
//
//   [0, 8)    lsn      the record's own LSN (self-identifying)
//   [8, 9)    type
//   [9, 17)   txn_id
//   [17, 25)  page_id
//   [25, 29)  offset
//   [29, 32)  payload length (24 bits)
//   [32, 36)  CRC32-C over bytes [0, 29), then over the payload
//   [36, ...) payload: the after-image bytes of an update, empty otherwise
//
// The length is not under the CRC. It is checked by position instead: the
// CRC covers exactly the payload the length names, and a record that would
// run past its segment or past a page is torn.
inline constexpr size_t kLogHeaderBytes = 36;
inline constexpr size_t kLogCrcCoveredHeaderBytes = 29;
inline constexpr uint32_t kMaxLogPayloadBytes = (1u << 24) - 1;

// Physiological redo record, decoded into owned fields. Updates carry the
// after-image bytes of the modified byte range (page splits log whole-page
// images), which is all a redo-only recovery pass needs; the workloads in
// this repo never roll back, so no undo information is kept (documented in
// DESIGN.md). The log itself holds records serialized (LogBuffer); this is
// the value type LogManager::records_snapshot() decodes them into.
struct LogRecord {
  Lsn lsn = kInvalidLsn;
  LogRecordType type = LogRecordType::kUpdate;
  uint64_t txn_id = 0;
  PageId page_id = kInvalidPageId;
  uint32_t offset = 0;
  // CRC32-C over every other field, sealed at append time. A record in the
  // durable prefix whose stored checksum no longer matches its content is a
  // torn tail block: replay truncates the log there instead of applying
  // (or asserting on) garbage.
  uint32_t checksum = 0;
  std::vector<uint8_t> bytes;

  // 36-byte header (checksum included) + after-image payload.
  size_t SizeOnDisk() const { return kLogHeaderBytes + bytes.size(); }

  uint32_t ComputeChecksum() const;
  void SealChecksum() { checksum = ComputeChecksum(); }
  bool VerifyChecksum() const { return checksum == ComputeChecksum(); }

  bool operator==(const LogRecord&) const = default;
};

// A record read in place: the fixed fields decoded, the payload a span into
// the segment that holds it. Valid while the log it came from is not
// appended to, cut or truncated.
struct LogRecordView {
  Lsn lsn = kInvalidLsn;
  LogRecordType type = LogRecordType::kUpdate;
  uint64_t txn_id = 0;
  PageId page_id = kInvalidPageId;
  uint32_t offset = 0;
  uint32_t checksum = 0;  // as stored
  std::span<const uint8_t> bytes;

  size_t SizeOnDisk() const { return kLogHeaderBytes + bytes.size(); }
  LogRecord ToRecord() const;
};

// The in-memory log: records in their serialized form, packed into an
// append-only chain of fixed-size byte segments. A record never spans two
// segments; a segment covers the contiguous LSN range [first, first + used),
// and the next segment starts where the next record was appended (a crash
// that drops an unforced tail leaves an LSN gap between two segments, as the
// dropped LSNs are never reused).
//
// The head cursor is the first retained record: DropHead advances it and
// releases every segment wholly below it. CutTail shortens the log by
// offset. Released segments no copy shares become spares that Append
// fills again.
//
// Copies share segments copy-on-write, the way MemDevice content snapshots
// share chunks: copying a LogBuffer copies one pointer per segment, and an
// append or a byte flip first clones a segment that another copy still
// references, so no copy ever sees another's later writes. "Still
// references" is the segment's use_count(): copies are made and dropped
// only where no other thread touches the log (recovery, the crash
// harness), so the count is exact there.
class LogBuffer {
 public:
  static constexpr size_t kSegmentBytes = size_t{1} << 20;

  class Iterator;

  // First retained LSN (the head cursor), and one past the last record's
  // last byte (head() when empty).
  Lsn head() const { return head_; }
  Lsn end_lsn() const { return segs_.empty() ? head_ : segs_.back().end(); }
  bool empty() const { return segs_.empty(); }

  // Serializes one record at `lsn` (>= end_lsn()), sealing its checksum.
  // The payload must fit a segment.
  void Append(Lsn lsn, LogRecordType type, uint64_t txn_id, PageId page_id,
              uint32_t offset, std::span<const uint8_t> payload);

  // The record at `it`, verified: whole inside its segment, its stored LSN
  // equal to its position, a known type, a payload of at most
  // `max_payload` bytes (none unless an update; an update's bytes must fit
  // a page of that size) and a matching checksum.
  bool Verify(const Iterator& it, uint32_t max_payload) const;

  // Moves the head cursor to `lsn` (a record start, or end_lsn() or beyond
  // to drop everything) and releases the segments wholly below it.
  void DropHead(Lsn lsn);
  // Drops every byte at or after `lsn` (a record start >= head()).
  void CutTail(Lsn lsn);

  // XORs the byte at `lsn` with `mask` in this copy only (torn-block
  // injection and fuzzing).
  void FlipByte(Lsn lsn, uint8_t mask);

  // The records from the head cursor on. Iteration trusts each record's
  // length: walk only records that were appended here or passed Verify.
  Iterator begin() const;
  Iterator end() const;
  // The record starting at `lsn`, a record start in [head(), end_lsn()).
  Iterator At(Lsn lsn) const;

  // [first, end) LSN range of each segment, in order (fuzzing).
  std::vector<std::pair<Lsn, Lsn>> segment_extents() const;

 private:
  struct Segment {
    std::shared_ptr<uint8_t[]> bytes;
    Lsn first = 0;
    uint32_t used = 0;
    Lsn end() const { return first + used; }
  };

  // Segments that were dropped while no copy shared them, kept for Append
  // to reuse: freeing them hands their pages back to the system, and an
  // append that faults fresh pages in holds the WAL latch meanwhile. Not
  // part of the log's content, so a copy starts without any.
  struct Spares {
    std::vector<std::shared_ptr<uint8_t[]>> list;
    Spares() = default;
    Spares(const Spares&) {}
    Spares& operator=(const Spares&) { return *this; }
    Spares(Spares&&) = default;
    Spares& operator=(Spares&&) = default;
  };

  // Bytes for a new segment: a spare if there is one.
  std::shared_ptr<uint8_t[]> NewSegmentBytes();
  // Keeps the bytes of a dropped segment as a spare unless a copy holds
  // them.
  void Recycle(std::shared_ptr<uint8_t[]> bytes);
  // Index of the segment holding `lsn`, or segs_.size() if none does.
  size_t Locate(Lsn lsn) const;
  // Segment `i` ready for a write: cloned if another copy shares it.
  uint8_t* Writable(size_t i);
  // Drops leading segments that hold nothing at or after the head.
  void DropDeadSegments();

  std::vector<Segment> segs_;
  Lsn head_ = 1;  // LSN 0 is invalid; the first record starts at 1
  Spares spares_;
};

// Walks records in LSN order, stepping over segment ends and LSN gaps.
class LogBuffer::Iterator {
 public:
  LogRecordView operator*() const;
  Iterator& operator++();
  bool operator==(const Iterator& o) const {
    return seg_ == o.seg_ && lsn_ == o.lsn_;
  }

  // Start LSN of the record under the iterator.
  Lsn lsn() const { return lsn_; }

 private:
  friend class LogBuffer;
  Iterator(const std::vector<Segment>* segs, size_t seg, Lsn lsn)
      : segs_(segs), seg_(seg), lsn_(lsn) {}
  const uint8_t* data() const {
    const Segment& s = (*segs_)[seg_];
    return s.bytes.get() + (lsn_ - s.first);
  }

  const std::vector<Segment>* segs_ = nullptr;
  size_t seg_ = 0;
  Lsn lsn_ = 0;  // 0 once past the last segment
};

}  // namespace turbobp

#endif  // TURBOBP_WAL_LOG_BUFFER_H_

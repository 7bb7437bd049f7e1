#include "core/ssd_metadata_journal.h"

#include <algorithm>
#include <cstring>

#include "common/checksum.h"
#include "fault/crash_point.h"

namespace turbobp {

namespace {

// Journal page header, at offset 0 of every region page. The CRC covers the
// header (with the crc field zeroed) plus the first `used` payload bytes,
// so every page is valid standalone and a torn write is self-evident.
struct JournalPageHeader {
  uint32_t magic = 0;
  uint32_t kind = 0;  // 1 = seal, 2 = snapshot, 3 = append
  uint64_t epoch = 0;
  uint32_t index = 0;  // position within the page's role (snap/append area)
  uint32_t used = 0;   // payload bytes covered by the CRC
  uint32_t crc = 0;
  uint32_t reserved = 0;
};
static_assert(sizeof(JournalPageHeader) == 32);

inline constexpr uint32_t kJournalMagic = 0x4A504254;  // "TBPJ"
inline constexpr uint32_t kKindSeal = 1;
inline constexpr uint32_t kKindSnapshot = 2;
inline constexpr uint32_t kKindAppend = 3;
inline constexpr uint32_t kHeaderBytes = sizeof(JournalPageHeader);
// type(1) + frame(8) + page_id(8) + lsn(8) + flags(1)
inline constexpr uint32_t kRecordBytes = 26;
inline constexpr uint8_t kRecPut = 1;
inline constexpr uint8_t kRecErase = 2;
inline constexpr uint8_t kFlagDirty = 0x1;

// Seal payload: snapshot page count + total table entries at seal time.
struct SealPayload {
  uint32_t snapshot_pages = 0;
  uint32_t reserved = 0;
  uint64_t entry_count = 0;
};
static_assert(sizeof(SealPayload) == 16);

uint32_t PageCrc(const JournalPageHeader& h, const uint8_t* payload) {
  JournalPageHeader copy = h;
  copy.crc = 0;
  const uint32_t seed = Crc32c(&copy, sizeof(copy));
  return Crc32c(payload, h.used, seed);
}

void EncodeRecord(const SsdMetadataJournal::Record& r, uint8_t* out) {
  out[0] = r.erase ? kRecErase : kRecPut;
  std::memcpy(out + 1, &r.frame, 8);
  std::memcpy(out + 9, &r.page_id, 8);
  std::memcpy(out + 17, &r.page_lsn, 8);
  out[25] = r.dirty ? kFlagDirty : 0;
}

SsdMetadataJournal::Record DecodeRecord(const uint8_t* in) {
  SsdMetadataJournal::Record r;
  r.erase = in[0] == kRecErase;
  std::memcpy(&r.frame, in + 1, 8);
  std::memcpy(&r.page_id, in + 9, 8);
  std::memcpy(&r.page_lsn, in + 17, 8);
  r.dirty = (in[25] & kFlagDirty) != 0;
  return r;
}

// Builds one sealed journal page in `buf` from `n` records starting at
// `recs` (n == 0 allowed: an empty-but-valid page).
void BuildRecordPage(uint32_t kind, uint64_t epoch, uint32_t index,
                     const SsdMetadataJournal::Record* recs, size_t n,
                     std::span<uint8_t> buf) {
  std::fill(buf.begin(), buf.end(), uint8_t{0});
  JournalPageHeader h;
  h.magic = kJournalMagic;
  h.kind = kind;
  h.epoch = epoch;
  h.index = index;
  h.used = static_cast<uint32_t>(n) * kRecordBytes;
  uint8_t* payload = buf.data() + kHeaderBytes;
  for (size_t i = 0; i < n; ++i) {
    EncodeRecord(recs[i], payload + i * kRecordBytes);
  }
  h.crc = PageCrc(h, payload);
  std::memcpy(buf.data(), &h, kHeaderBytes);
}

// Validates a page read back from the device: magic, CRC and — when the
// caller knows what it expects — kind/epoch/index. Returns false on any
// mismatch (the page is residue of an older epoch, or torn).
bool ValidatePage(std::span<const uint8_t> buf, JournalPageHeader* out,
                  uint32_t want_kind = 0, uint64_t want_epoch = 0,
                  bool check_epoch = false, uint32_t want_index = 0,
                  bool check_index = false) {
  if (buf.size() < kHeaderBytes) return false;
  JournalPageHeader h;
  std::memcpy(&h, buf.data(), kHeaderBytes);
  if (h.magic != kJournalMagic) return false;
  if (h.used > buf.size() - kHeaderBytes) return false;
  if (h.crc != PageCrc(h, buf.data() + kHeaderBytes)) return false;
  if (h.epoch > SsdMetadataJournal::kMaxEpoch) return false;
  if (want_kind != 0 && h.kind != want_kind) return false;
  if (check_epoch && h.epoch != want_epoch) return false;
  if (check_index && h.index != want_index) return false;
  if (out != nullptr) *out = h;
  return true;
}

}  // namespace

uint32_t SsdMetadataJournal::RegionPagesFor(int64_t num_frames,
                                            uint32_t page_bytes) {
  TURBOBP_CHECK(page_bytes > kHeaderBytes + kRecordBytes);
  const uint32_t per_page = (page_bytes - kHeaderBytes) / kRecordBytes;
  const uint32_t snap_cap = static_cast<uint32_t>(
      (num_frames + per_page - 1) / per_page);
  const uint32_t append_cap = std::max<uint32_t>(4, snap_cap);
  return 2 * (1 + snap_cap + append_cap);
}

SsdMetadataJournal::SsdMetadataJournal(StorageDevice* device,
                                       uint64_t region_base,
                                       uint32_t region_pages,
                                       SnapshotFn snapshot_fn)
    : device_(device),
      region_base_(region_base),
      region_pages_(region_pages),
      page_bytes_(device->page_bytes()),
      records_per_page_((page_bytes_ - kHeaderBytes) / kRecordBytes),
      snapshot_fn_(std::move(snapshot_fn)) {
  TURBOBP_CHECK(device != nullptr);
  TURBOBP_CHECK(records_per_page_ > 0);
  TURBOBP_CHECK(region_pages_ >= 2 * (1 + 1 + 4));
  TURBOBP_CHECK(region_base_ + region_pages_ <= device->num_pages());
  half_pages_ = region_pages_ / 2;
  // Split the half between snapshot and append area the same way
  // RegionPagesFor sized it: snapshot first, at least 4 append pages.
  const uint32_t body = half_pages_ - 1;
  snap_cap_ = std::min<uint32_t>(body - 4, (body + 1) / 2);
  append_cap_ = body - snap_cap_;
}

void SsdMetadataJournal::NotePut(uint64_t frame, PageId page_id, Lsn page_lsn,
                                 bool dirty) {
  Record r;
  r.frame = frame;
  r.page_id = page_id;
  r.page_lsn = page_lsn;
  r.dirty = dirty;
  TrackedLockGuard lock(mu_);
  pending_.push_back(r);
}

void SsdMetadataJournal::NoteErase(uint64_t frame) {
  Record r;
  r.frame = frame;
  r.erase = true;
  TrackedLockGuard lock(mu_);
  pending_.push_back(r);
}

IoResult SsdMetadataJournal::Maintain(IoContext& ctx, bool force) {
  bool expected = false;
  if (!flushing_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return IoResult{ctx.now, Status::Ok()};  // a flush is already running
  }
  const IoResult res = FlushExclusive(ctx, force, /*want_compact=*/false);
  flushing_.store(false, std::memory_order_release);
  return res;
}

IoResult SsdMetadataJournal::Compact(IoContext& ctx) {
  bool expected = false;
  if (!flushing_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return IoResult{ctx.now, Status::Ok()};
  }
  const IoResult res = FlushExclusive(ctx, /*force=*/true,
                                      /*want_compact=*/true);
  flushing_.store(false, std::memory_order_release);
  return res;
}

IoResult SsdMetadataJournal::FlushExclusive(IoContext& ctx, bool force,
                                            bool want_compact) {
  {
    TrackedLockGuard lock(mu_);
    tail_.insert(tail_.end(), pending_.begin(), pending_.end());
    pending_.clear();
  }
  if (!opened_ || want_compact) {
    if (!force && tail_.empty()) return IoResult{ctx.now, Status::Ok()};
    return CompactNow(ctx);
  }
  if (!force && tail_.size() < records_per_page_) {
    return IoResult{ctx.now, Status::Ok()};
  }
  return FlushTail(ctx, force);
}

IoResult SsdMetadataJournal::FlushTail(IoContext& ctx, bool force) {
  IoResult res{ctx.now, Status::Ok()};
  const int half = static_cast<int>(epoch_ % 2);
  std::vector<uint8_t> buf(page_bytes_);
  size_t consumed = 0;
  while (consumed < tail_.size()) {
    const size_t remaining = tail_.size() - consumed;
    if (remaining < records_per_page_ && !force) break;
    if (append_used_pages_ >= append_cap_) {
      // Append area exhausted: fold everything into a fresh epoch.
      tail_.erase(tail_.begin(),
                  tail_.begin() + static_cast<ptrdiff_t>(consumed));
      return CompactNow(ctx);
    }
    const size_t n = std::min<size_t>(records_per_page_, remaining);
    BuildRecordPage(kKindAppend, epoch_, append_used_pages_,
                    tail_.data() + consumed, n, buf);
    const IoResult w =
        WriteRegionPage(AppendBaseOf(half) + append_used_pages_, buf, ctx,
                        "ssd/journal-append");
    if (!w.ok()) {
      // The page may be torn; recovery's CRC scan truncates there. Keep
      // the records staged so a later flush rewrites the page intact.
      tail_.erase(tail_.begin(),
                  tail_.begin() + static_cast<ptrdiff_t>(consumed));
      return w;
    }
    res.time = std::max(res.time, w.time);
    if (n == records_per_page_) {
      records_appended_.fetch_add(static_cast<int64_t>(n),
                                  std::memory_order_relaxed);
      consumed += n;
      ++append_used_pages_;
    } else {
      // Partial tail page: the records stay staged and the same device page
      // is rewritten fuller next time (every intermediate image is sealed).
      break;
    }
  }
  tail_.erase(tail_.begin(), tail_.begin() + static_cast<ptrdiff_t>(consumed));
  return res;
}

IoResult SsdMetadataJournal::CompactNow(IoContext& ctx) {
  if (!opened_) {
    // First contact with the device (fresh manager over a possibly-warm
    // SSD): learn the highest epoch any valid page carries, so the new
    // epoch supersedes every stale page, even in its own half.
    epoch_ = ScanMaxEpoch(ctx);
  }
  IoResult res{ctx.now, Status::Ok()};
  std::vector<uint8_t> buf(page_bytes_);
  if (epoch_ >= kMaxEpoch) {
    // Only a forged or corrupt page can carry the last epoch, and no later
    // epoch could supersede it: zero the region and restart the sequence.
    // That costs the journal's warmth, never correctness.
    for (uint32_t i = 0; i < region_pages_; ++i) {
      const IoResult w = WriteRegionPage(region_base_ + i, buf, ctx,
                                         "ssd/journal-compact");
      if (!w.ok()) return w;
      res.time = std::max(res.time, w.time);
    }
    epoch_ = 0;
  }
  const uint64_t next = epoch_ + 1;
  const int half = static_cast<int>(next % 2);
  std::vector<Record> snap;
  if (snapshot_fn_) snap = snapshot_fn_();
  if (snap.size() > static_cast<size_t>(snap_cap_) * records_per_page_) {
    snap.resize(static_cast<size_t>(snap_cap_) * records_per_page_);
  }
  const uint32_t pages = static_cast<uint32_t>(
      (snap.size() + records_per_page_ - 1) / records_per_page_);
  for (uint32_t i = 0; i < pages; ++i) {
    const size_t off = static_cast<size_t>(i) * records_per_page_;
    const size_t n = std::min<size_t>(records_per_page_, snap.size() - off);
    BuildRecordPage(kKindSnapshot, next, i, snap.data() + off, n, buf);
    const IoResult w = WriteRegionPage(SnapshotBaseOf(half) + i, buf, ctx,
                                       "ssd/journal-compact");
    if (!w.ok()) return w;  // old epoch stays authoritative; retry later
    res.time = std::max(res.time, w.time);
  }
  // Seal LAST: the epoch switch publishes atomically with this page. A
  // crash anywhere before leaves the previous epoch authoritative (the
  // "stale journal" recovery scenario).
  std::fill(buf.begin(), buf.end(), uint8_t{0});
  JournalPageHeader h;
  h.magic = kJournalMagic;
  h.kind = kKindSeal;
  h.epoch = next;
  h.index = 0;
  h.used = sizeof(SealPayload);
  SealPayload payload;
  payload.snapshot_pages = pages;
  payload.entry_count = snap.size();
  std::memcpy(buf.data() + kHeaderBytes, &payload, sizeof(payload));
  h.crc = PageCrc(h, buf.data() + kHeaderBytes);
  std::memcpy(buf.data(), &h, kHeaderBytes);
  const IoResult w =
      WriteRegionPage(SealPageOf(half), buf, ctx, "ssd/journal-seal");
  if (!w.ok()) return w;
  res.time = std::max(res.time, w.time);
  epoch_ = next;
  append_used_pages_ = 0;
  tail_.clear();  // the snapshot covers everything staged so far
  opened_ = true;
  compactions_.fetch_add(1, std::memory_order_relaxed);
  return res;
}

uint64_t SsdMetadataJournal::ScanMaxEpoch(IoContext& ctx) {
  uint64_t max_epoch = 0;
  std::vector<uint8_t> buf(page_bytes_);
  for (uint32_t i = 0; i < region_pages_; ++i) {
    const IoResult r =
        device_->Read(region_base_ + i, 1, buf, ctx.now, ctx.charge);
    if (!r.ok()) continue;
    ctx.Wait(r.time);
    JournalPageHeader h;
    if (ValidatePage(buf, &h)) max_epoch = std::max(max_epoch, h.epoch);
  }
  return max_epoch;
}

IoResult SsdMetadataJournal::WriteRegionPage(uint64_t abs_page,
                                             std::span<const uint8_t> data,
                                             IoContext& ctx,
                                             const char* crash_point) {
  const IoResult w = device_->Write(abs_page, 1, data, ctx.now, ctx.charge);
  // The durable journal bytes just changed on the medium; `crash_point`
  // names which edge (append / compact / seal) for the torture harness.
  TURBOBP_CRASH_POINT(crash_point);
  if (!w.ok()) write_errors_.fetch_add(1, std::memory_order_relaxed);
  pages_written_.fetch_add(1, std::memory_order_relaxed);
  return w;
}

SsdMetadataJournal::RecoveredState SsdMetadataJournal::Recover(
    IoContext& ctx) {
  RecoveredState out;
  bool expected = false;
  if (!flushing_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return out;  // startup-time API; a concurrent flush means misuse
  }
  // Learn the global max epoch first (also protects the epoch sequence of
  // the compaction that re-seals after recovery).
  const uint64_t max_epoch = ScanMaxEpoch(ctx);

  std::vector<uint8_t> buf(page_bytes_);
  struct Candidate {
    uint64_t epoch;
    uint32_t snapshot_pages;
    int half;
  };
  std::vector<Candidate> candidates;
  for (int half = 0; half < 2; ++half) {
    const IoResult r =
        device_->Read(SealPageOf(half), 1, buf, ctx.now, ctx.charge);
    if (!r.ok()) continue;
    ctx.Wait(r.time);
    JournalPageHeader h;
    if (!ValidatePage(buf, &h, kKindSeal)) continue;
    if (h.used < sizeof(SealPayload)) continue;
    SealPayload payload;
    std::memcpy(&payload, buf.data() + kHeaderBytes, sizeof(payload));
    if (payload.snapshot_pages > snap_cap_) continue;
    if (static_cast<int>(h.epoch % 2) != half) continue;
    candidates.push_back(Candidate{h.epoch, payload.snapshot_pages, half});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.epoch > b.epoch;
            });

  for (size_t ci = 0; ci < candidates.size(); ++ci) {
    const Candidate& cand = candidates[ci];
    std::unordered_map<uint64_t, RecoveredEntry> entries;
    bool snapshot_ok = true;
    for (uint32_t i = 0; i < cand.snapshot_pages && snapshot_ok; ++i) {
      const IoResult r = device_->Read(SnapshotBaseOf(cand.half) + i, 1, buf,
                                       ctx.now, ctx.charge);
      if (!r.ok()) {
        snapshot_ok = false;
        break;
      }
      ctx.Wait(r.time);
      JournalPageHeader h;
      if (!ValidatePage(buf, &h, kKindSnapshot, cand.epoch,
                        /*check_epoch=*/true, i, /*check_index=*/true)) {
        snapshot_ok = false;
        break;
      }
      for (uint32_t j = 0; j * kRecordBytes + kRecordBytes <= h.used; ++j) {
        const Record rec =
            DecodeRecord(buf.data() + kHeaderBytes + j * kRecordBytes);
        if (rec.erase) {
          entries.erase(rec.frame);
        } else {
          entries[rec.frame] =
              RecoveredEntry{rec.page_id, rec.page_lsn, rec.dirty};
        }
      }
    }
    if (!snapshot_ok) {
      // A torn or overwritten snapshot makes the whole epoch unusable
      // (records could be missing from the middle, not just the tail).
      continue;
    }
    out.valid = true;
    out.epoch = cand.epoch;
    out.half = cand.half;
    // Fell back if a newer epoch existed but was unusable — either its seal
    // validated and its snapshot did not (ci > 0), or the seal itself was
    // destroyed while CRC-valid pages of the newer epoch survive elsewhere
    // in the region (max_epoch > adopted epoch).
    out.fell_back = ci > 0 || max_epoch > cand.epoch;
    out.snapshot_pages = cand.snapshot_pages;
    // Append scan: consume sealed pages in index order; stop at the first
    // invalid page. A CRC-torn page that still carries this epoch's magic
    // header is a torn tail; anything else is just end-of-log residue.
    for (uint32_t i = 0; i < append_cap_; ++i) {
      const IoResult r = device_->Read(AppendBaseOf(cand.half) + i, 1, buf,
                                       ctx.now, ctx.charge);
      if (!r.ok()) {
        out.torn_tail = true;
        break;
      }
      ctx.Wait(r.time);
      JournalPageHeader h;
      if (!ValidatePage(buf, &h, kKindAppend, cand.epoch,
                        /*check_epoch=*/true, i, /*check_index=*/true)) {
        JournalPageHeader raw;
        std::memcpy(&raw, buf.data(), kHeaderBytes);
        out.torn_tail = raw.magic == kJournalMagic &&
                        raw.kind == kKindAppend && raw.epoch == cand.epoch;
        break;
      }
      for (uint32_t j = 0; j * kRecordBytes + kRecordBytes <= h.used; ++j) {
        const Record rec =
            DecodeRecord(buf.data() + kHeaderBytes + j * kRecordBytes);
        if (rec.erase) {
          entries.erase(rec.frame);
        } else {
          entries[rec.frame] =
              RecoveredEntry{rec.page_id, rec.page_lsn, rec.dirty};
        }
        ++out.append_records;
      }
      ++out.append_pages;
    }
    out.entries = std::move(entries);
    break;
  }

  // Future epochs must supersede everything on the device, including pages
  // of epochs we did not adopt.
  epoch_ = std::max(max_epoch, out.epoch);
  opened_ = out.valid;
  append_used_pages_ = out.valid ? out.append_pages : 0;
  tail_.clear();
  flushing_.store(false, std::memory_order_release);
  return out;
}

}  // namespace turbobp

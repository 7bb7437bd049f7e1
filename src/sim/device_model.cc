#include "sim/device_model.h"

#include <algorithm>
#include <iterator>

#include "common/status.h"

namespace turbobp {

namespace {

// Scales a per-page transfer time from the model's reference page size to
// the configured page size (transfer is linear in bytes).
Time ScaleTransfer(Time per_ref_page, uint32_t page_bytes,
                   uint32_t reference_bytes) {
  return std::max<Time>(
      1, per_ref_page * page_bytes / static_cast<Time>(reference_bytes));
}

}  // namespace

// ---------------------------------------------------------------- HddModel

HddModel::HddModel(const HddParams& params) : params_(params) {
  Reset();
}

Time HddModel::Transfer(IoOp op, uint32_t pages) const {
  const Time per_page = ScaleTransfer(
      op == IoOp::kRead ? params_.transfer_read_per_page
                        : params_.transfer_write_per_page,
      params_.page_bytes, params_.reference_page_bytes);
  return per_page * pages;
}

Time HddModel::ServiceTime(const IoRequest& req) {
  bool sequential = false;
  for (int i = 0; i < kStreams; ++i) {
    if (stream_end_[i] == req.page_offset) {
      sequential = true;
      stream_end_[i] = req.page_offset + req.num_pages;
      break;
    }
  }
  if (!sequential) {
    // Start (or restart) a stream in the round-robin slot.
    stream_end_[next_stream_slot_] = req.page_offset + req.num_pages;
    next_stream_slot_ = (next_stream_slot_ + 1) % kStreams;
  }
  Time t = Transfer(req.op, req.num_pages);
  if (!sequential) {
    t += req.op == IoOp::kRead ? params_.seek_read : params_.seek_write;
  }
  return t;
}

Time HddModel::EstimateReadTime(AccessKind kind) const {
  const Time xfer = Transfer(IoOp::kRead, 1);
  return kind == AccessKind::kRandom ? params_.seek_read + xfer : xfer;
}

void HddModel::Reset() {
  for (int i = 0; i < kStreams; ++i) stream_end_[i] = UINT64_MAX;
  next_stream_slot_ = 0;
}

// ---------------------------------------------------------------- SsdModel

SsdModel::SsdModel(const SsdParams& params) : params_(params) {}

Time SsdModel::ServiceTime(const IoRequest& req) {
  const bool sequential = req.page_offset == next_sequential_offset_;
  next_sequential_offset_ = req.page_offset + req.num_pages;
  Time per_page;
  if (req.op == IoOp::kRead) {
    per_page = sequential ? params_.read_sequential_per_page
                          : params_.read_random_per_page;
  } else {
    per_page = sequential ? params_.write_sequential_per_page
                          : params_.write_random_per_page;
  }
  // Pages after the first within one request stream sequentially.
  Time t = per_page;
  if (req.num_pages > 1) {
    const Time seq = req.op == IoOp::kRead
                         ? params_.read_sequential_per_page
                         : params_.write_sequential_per_page;
    t += seq * (req.num_pages - 1);
  }
  return t;
}

Time SsdModel::EstimateReadTime(AccessKind kind) const {
  return kind == AccessKind::kRandom ? params_.read_random_per_page
                                     : params_.read_sequential_per_page;
}

void SsdModel::Reset() { next_sequential_offset_ = UINT64_MAX; }

// ----------------------------------------------------------- DeviceTimeline

DeviceTimeline::DeviceTimeline(DeviceModel* model, uint32_t page_bytes)
    : model_(model), page_bytes_(page_bytes) {
  TURBOBP_CHECK(model != nullptr);
}

Time DeviceTimeline::Schedule(const IoRequest& req, Time now,
                              Time* service_start) {
  const Time service = model_->ServiceTime(req);
  const auto by_start = [](Time t, const std::pair<Time, Time>& iv) {
    return t < iv.first;
  };
  // Earliest idle interval at or after `now` that fits `service`.
  Time start = now;
  auto it = std::upper_bound(busy_.begin(), busy_.end(), start, by_start);
  if (it != busy_.begin()) {
    const auto prev = std::prev(it);
    if (prev->second > start) start = prev->second;
  }
  while (it != busy_.end() && it->first < start + service) {
    start = std::max(start, it->second);
    ++it;
  }
  const Time completion = start + service;
  if (service_start != nullptr) *service_start = start;
  // Starts stay unique: an interval already booked at `start` is kept.
  const auto at = std::lower_bound(
      busy_.begin(), busy_.end(), start,
      [](const std::pair<Time, Time>& iv, Time t) { return iv.first < t; });
  if (at == busy_.end() || at->first != start) {
    busy_.insert(at, {start, completion});
  }
  free_at_ = std::max(free_at_, completion);
  busy_time_ += service;
  // Bound the vector: coalesce the oldest entries pairwise once it grows
  // large (2048 -> 1024).
  if (busy_.size() > 2048) {
    const size_t pairs = std::min<size_t>(1024, busy_.size() / 2);
    for (size_t i = 0; i < pairs; ++i) {
      busy_[i] = {busy_[2 * i].first,
                  std::max(busy_[2 * i].second, busy_[2 * i + 1].second)};
    }
    busy_.erase(busy_.begin() + static_cast<std::ptrdiff_t>(pairs),
                busy_.begin() + static_cast<std::ptrdiff_t>(2 * pairs));
  }
  const int64_t nbytes = static_cast<int64_t>(req.num_pages) * page_bytes_;
  if (req.op == IoOp::kRead) {
    ++reads_;
    read_bytes_ += nbytes;
    if (read_traffic_ != nullptr) read_traffic_->Record(now, nbytes);
  } else {
    ++writes_;
    write_bytes_ += nbytes;
    if (write_traffic_ != nullptr) write_traffic_->Record(now, nbytes);
  }
  // Without this, a device whose queue length nobody asks for (the log
  // device, the disk spindles) would keep one entry per request forever.
  DropCompleted(now);
  pending_completions_.push(completion);
  return completion;
}

int DeviceTimeline::QueueLength(Time now) {
  DropCompleted(now);
  return static_cast<int>(pending_completions_.size());
}

void DeviceTimeline::DropCompleted(Time now) {
  while (!pending_completions_.empty() && pending_completions_.top() <= now) {
    pending_completions_.pop();
  }
}

void DeviceTimeline::Reset() {
  busy_.clear();
  free_at_ = 0;
  busy_time_ = 0;
  reads_ = writes_ = 0;
  read_bytes_ = write_bytes_ = 0;
  pending_completions_ = {};
  model_->Reset();
}

}  // namespace turbobp

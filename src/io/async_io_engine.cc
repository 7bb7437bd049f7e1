#include "io/async_io_engine.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/status.h"
#include "fault/crash_point.h"

namespace turbobp {

AsyncIoEngine::AsyncIoEngine(StorageDevice* device, int queue_depth)
    : device_(device), queue_depth_(queue_depth) {
  TURBOBP_CHECK(device_ != nullptr);
  TURBOBP_CHECK(queue_depth_ >= 1);
}

AsyncIoEngine::Batch AsyncIoEngine::PopBatchLocked() {
  // Normal lane first; the low-priority lane only drains when it is empty.
  std::deque<Pending>& q = staged_.empty() ? staged_low_ : staged_;
  Batch batch;
  batch.reqs.push_back(std::move(q.front()));
  q.pop_front();
  const Pending& head = batch.reqs.front();
  batch.op = head.req.op;
  batch.charge = head.charge;
  batch.total_pages = head.req.num_pages;
  if (head.no_coalesce) return batch;
  while (!q.empty()) {
    const Pending& next = q.front();
    const Pending& last = batch.reqs.back();
    if (next.no_coalesce || next.req.op != batch.op ||
        next.charge != batch.charge ||
        next.req.first_page != last.req.first_page + last.req.num_pages ||
        batch.total_pages + next.req.num_pages > kMaxCoalescedPages) {
      break;
    }
    batch.total_pages += next.req.num_pages;
    batch.reqs.push_back(std::move(q.front()));
    q.pop_front();
  }
  return batch;
}

IoResult AsyncIoEngine::IssueBatch(Batch& batch, Time at) {
  const PageId first = batch.reqs.front().req.first_page;
  IoResult res;
  if (batch.reqs.size() == 1) {
    AsyncIoRequest& req = batch.reqs.front().req;
    if (batch.op == IoOp::kRead) {
      res = device_->Read(first, req.num_pages, req.out, at, batch.charge);
    } else {
      // The device interface takes a mutable span; the write source is
      // logically const and not modified.
      res = device_->Write(
          first, req.num_pages,
          std::span<uint8_t>(const_cast<uint8_t*>(req.data.data()),
                             req.data.size()),
          at, batch.charge);
    }
  } else {
    // Vectored op over a coalesced run: one device request, with a bounce
    // buffer gathering write sources / scattering read destinations to the
    // per-request spans.
    const size_t page_bytes =
        batch.reqs.front().req.op == IoOp::kRead
            ? batch.reqs.front().req.out.size() /
                  batch.reqs.front().req.num_pages
            : batch.reqs.front().req.data.size() /
                  batch.reqs.front().req.num_pages;
    std::vector<uint8_t> bounce(batch.total_pages * page_bytes);
    if (batch.op == IoOp::kWrite) {
      size_t off = 0;
      for (const Pending& p : batch.reqs) {
        std::copy(p.req.data.begin(), p.req.data.end(), bounce.begin() + off);
        off += p.req.data.size();
      }
      res = device_->Write(first, batch.total_pages, bounce, at, batch.charge);
    } else {
      res = device_->Read(first, batch.total_pages, bounce, at, batch.charge);
      size_t off = 0;
      for (Pending& p : batch.reqs) {
        std::copy(bounce.begin() + off, bounce.begin() + off + p.req.out.size(),
                  p.req.out.begin());
        off += p.req.out.size();
      }
    }
  }
  if (batch.op == IoOp::kWrite) {
    // Issued but not yet reaped: the transfer has reached the device, the
    // completion has not reached the consumer.
    TURBOBP_CRASH_POINT("io/submitted-write");
  }
  return res;
}

void AsyncIoEngine::Kick(Time now) {
  EngineLock lock(mu_);
  clock_ = std::max(clock_, now);
  while (HasStagedLocked() &&
         static_cast<int>(issued_.size()) + issuing_ < queue_depth_) {
    Batch batch = PopBatchLocked();
    Time at = clock_;
    for (Pending& p : batch.reqs) {
      at = std::max(at, p.not_before);
      ++p.attempts;
    }
    ++stats_.device_ops;
    if (batch.reqs.size() > 1) {
      ++stats_.coalesced_batches;
      stats_.coalesced_pages += batch.total_pages;
    }
    // The batch is off staged_ and not yet in issued_: issuing_ keeps its
    // ring slot (a concurrent Kick must not overfill the ring) and keeps a
    // concurrent Drain waiting for it.
    ++issuing_;
    lock.unlock();
    const IoResult res = IssueBatch(batch, at);
    lock.lock();
    --issuing_;
    batch.result = res;
    issued_.emplace(batch.result.time, std::move(batch));
    reap_cv_.notify_all();
  }
}

void AsyncIoEngine::Deliver(Batch batch, std::vector<IoCompletion>* out) {
  for (Pending& p : batch.reqs) {
    IoCompletion c;
    c.token = p.token;
    c.tag = p.req.tag;
    c.op = p.req.op;
    c.first_page = p.req.first_page;
    c.num_pages = p.req.num_pages;
    c.result = batch.result;
    if (p.req.on_complete) p.req.on_complete(c);
    if (out != nullptr) out->push_back(std::move(c));
  }
}

bool AsyncIoEngine::HarvestOne(Time deadline, std::vector<IoCompletion>* out) {
  Batch batch;
  {
    EngineLock lock(mu_);
    auto it = issued_.begin();
    if (it == issued_.end() || it->first > deadline) return false;
    batch = std::move(it->second);
    issued_.erase(it);
    clock_ = std::max(clock_, batch.result.time);

    const bool transient = batch.result.status.IsIoError();
    if (transient && batch.reqs.size() > 1) {
      // A coalesced batch failed: split it and re-issue per request so the
      // retry touches only the page that is actually flaky. Re-stage at the
      // queue front to preserve submission order relative to later work.
      for (auto rit = batch.reqs.rbegin(); rit != batch.reqs.rend(); ++rit) {
        rit->no_coalesce = true;
        rit->not_before =
            std::max(rit->not_before, batch.result.time);
        ++stats_.retries;
        staged_.push_front(std::move(*rit));
      }
      return true;
    }
    if (transient && batch.reqs.front().attempts < kRetryLimit) {
      Pending p = std::move(batch.reqs.front());
      p.no_coalesce = true;
      p.not_before = batch.result.time + kRetryBackoff;
      ++stats_.retries;
      staged_.push_front(std::move(p));
      return true;
    }
    last_completion_ = std::max(last_completion_, batch.result.time);
    stats_.completed += static_cast<int64_t>(batch.reqs.size());
    if (!batch.result.ok()) {
      stats_.errors += static_cast<int64_t>(batch.reqs.size());
    }
    ++delivering_;
  }
  // Engine latch dropped: completion callbacks may re-enter the frame state
  // machine and take pool/partition latches on a fresh stack.
  const auto n = static_cast<int64_t>(batch.reqs.size());
  Deliver(std::move(batch), out);
  {
    EngineLock lock(mu_);
    --delivering_;
    outstanding_ -= n;
  }
  reap_cv_.notify_all();
  return true;
}

IoToken AsyncIoEngine::Submit(const AsyncIoRequest& req, IoContext& ctx) {
  Pending p;
  p.req = req;
  p.charge = ctx.charge;
  const bool is_write = req.op == IoOp::kWrite;
  IoToken token = 0;
  {
    EngineLock lock(mu_);
    clock_ = std::max(clock_, ctx.now);
    // Per-lane backpressure: a backlog of background patrol work must not
    // block (or slow) a foreground submission, and vice versa.
    std::deque<Pending>& q = req.low_priority ? staged_low_ : staged_;
    // The submission queue is a virtual-time model: a "full" queue costs
    // latency (the request issues when a slot frees), never blocks the
    // submitting thread.
    if (static_cast<int>(q.size()) >= queue_depth_) ++stats_.queue_full_waits;
    token = next_token_++;
    p.token = token;
    ++stats_.submitted;
    ++outstanding_;
    q.push_back(std::move(p));
  }
  if (is_write) {
    // Acknowledged to the queue, not yet on the device: a crash here loses
    // the write (tests/fault queued-write-lost scenario).
    TURBOBP_CRASH_POINT("io/queued-write");
  }
  Kick(ctx.now);
  return token;
}

std::vector<IoCompletion> AsyncIoEngine::Reap(int max, Time deadline,
                                              IoContext& ctx) {
  std::vector<IoCompletion> out;
  if (max <= 0) return out;
  while (static_cast<int>(out.size()) < max) {
    Kick(ctx.now);
    if (!HarvestOne(deadline, &out)) break;
  }
  return out;
}

Time AsyncIoEngine::Drain(IoContext& ctx) {
  for (;;) {
    Reap(std::numeric_limits<int>::max(), kTimeMax, ctx);
    EngineLock lock(mu_);
    if (outstanding_ == 0) {
      clock_ = std::max(clock_, ctx.now);
      return std::max(ctx.now, last_completion_);
    }
    // Nothing harvestable here: the rest is mid device call or mid
    // callbacks on another thread. Wait for that window to close.
    if (issued_.empty() && (issuing_ > 0 || delivering_ > 0)) {
      reap_cv_.wait(lock);
    }
  }
}

int64_t AsyncIoEngine::Outstanding() const {
  EngineLock lock(mu_);
  return outstanding_;
}

void AsyncIoEngine::Reset() {
  EngineLock lock(mu_);
  // Wait out device calls and callbacks in progress so no batch
  // re-materialises after the queues are cleared.
  while (issuing_ > 0 || delivering_ > 0) reap_cv_.wait(lock);
  staged_.clear();
  staged_low_.clear();
  issued_.clear();
  outstanding_ = 0;
  clock_ = 0;
  last_completion_ = 0;
}

AsyncIoEngine::Stats AsyncIoEngine::stats() const {
  EngineLock lock(mu_);
  return stats_;
}

}  // namespace turbobp

#include "sim/device_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <set>

#include "common/rng.h"
#include "storage/sim_device.h"
#include "storage/striped_array.h"

namespace turbobp {
namespace {

// Closed-loop IOPS measurement (queue depth 1): issue each request when the
// previous completes, for ten simulated seconds. Resets the device timeline
// so back-to-back measurements start from an idle device.
double MeasureIops(SimDevice& dev, IoOp op, bool sequential,
                   uint64_t seed = 1) {
  dev.timeline().Reset();
  Rng rng(seed);
  std::vector<uint8_t> buf(dev.page_bytes());
  Time now = 0;
  int64_t count = 0;
  uint64_t seq = 0;
  while (now < Seconds(10)) {
    const uint64_t page =
        sequential ? (seq++ % dev.num_pages()) : rng.Uniform(dev.num_pages());
    now = op == IoOp::kRead ? dev.Read(page, 1, buf, now).time
                            : dev.Write(page, 1, buf, now).time;
    ++count;
  }
  return static_cast<double>(count) / 10.0;
}

// The paper's Table 1, which every experiment depends on. Tolerance 6%.
TEST(DeviceCalibrationTest, SsdMatchesTable1) {
  SimDevice ssd(1 << 16, 8192, std::make_unique<SsdModel>());
  EXPECT_NEAR(MeasureIops(ssd, IoOp::kRead, false), 12182, 12182 * 0.06);
  EXPECT_NEAR(MeasureIops(ssd, IoOp::kRead, true), 15980, 15980 * 0.06);
  EXPECT_NEAR(MeasureIops(ssd, IoOp::kWrite, false), 12374, 12374 * 0.06);
  EXPECT_NEAR(MeasureIops(ssd, IoOp::kWrite, true), 14965, 14965 * 0.06);
}

TEST(DeviceCalibrationTest, HddArrayMatchesTable1) {
  StripedDiskArray::Options opts;
  StripedDiskArray disks(1 << 18, 8192, opts);
  // Random access across the volume spreads over all 8 spindles; with a
  // closed loop per spindle the aggregate is what Iometer reports.
  double rand_read = 0, rand_write = 0;
  for (int s = 0; s < disks.num_spindles(); ++s) {
    rand_read += MeasureIops(disks.spindle(s), IoOp::kRead, false, s + 1);
    rand_write += MeasureIops(disks.spindle(s), IoOp::kWrite, false, s + 100);
  }
  EXPECT_NEAR(rand_read, 1015, 1015 * 0.06);
  EXPECT_NEAR(rand_write, 895, 895 * 0.06);
  // Sequential streams through the stripe: per-spindle sequential runs.
  double seq_read = 0, seq_write = 0;
  for (int s = 0; s < disks.num_spindles(); ++s) {
    seq_read += MeasureIops(disks.spindle(s), IoOp::kRead, true);
    seq_write += MeasureIops(disks.spindle(s), IoOp::kWrite, true);
  }
  EXPECT_NEAR(seq_read, 26370, 26370 * 0.06);
  EXPECT_NEAR(seq_write, 9463, 9463 * 0.06);
}

TEST(HddModelTest, SequentialAvoidsSeek) {
  HddModel hdd;
  const Time first = hdd.ServiceTime(IoRequest{IoOp::kRead, 100, 1});
  const Time second = hdd.ServiceTime(IoRequest{IoOp::kRead, 101, 1});
  EXPECT_GT(first, second * 10);  // positioning dominates
}

TEST(HddModelTest, DiscontinuityPaysSeekAgain) {
  HddModel hdd;
  hdd.ServiceTime(IoRequest{IoOp::kRead, 100, 1});
  const Time jump = hdd.ServiceTime(IoRequest{IoOp::kRead, 500, 1});
  const Time seq = hdd.ServiceTime(IoRequest{IoOp::kRead, 501, 1});
  EXPECT_GT(jump, seq * 10);
}

TEST(HddModelTest, MultiPageRequestPaysOneSeek) {
  HddModel hdd;
  const Time one = hdd.ServiceTime(IoRequest{IoOp::kRead, 0, 1});
  hdd.Reset();
  const Time eight = hdd.ServiceTime(IoRequest{IoOp::kRead, 0, 8});
  // 8 pages in one request cost far less than 8 separate random reads.
  EXPECT_LT(eight, 2 * one);
  EXPECT_GT(eight, one);
}

TEST(HddModelTest, EstimateReadTimeDistinguishesKinds) {
  HddModel hdd;
  EXPECT_GT(hdd.EstimateReadTime(AccessKind::kRandom),
            hdd.EstimateReadTime(AccessKind::kSequential) * 10);
}

TEST(SsdModelTest, RandomVsSequentialGapIsSmall) {
  SsdModel ssd;
  const Time rnd = ssd.EstimateReadTime(AccessKind::kRandom);
  const Time seq = ssd.EstimateReadTime(AccessKind::kSequential);
  EXPECT_LT(rnd, seq * 2);  // flash has no mechanical positioning
}

TEST(SsdModelTest, PageSizeDoesNotScaleLatency) {
  // Flash costs are latency-dominated: the service time is page-size
  // independent (unlike HDD transfer time, which scales linearly).
  SsdParams params;
  params.page_bytes = 1024;
  SsdModel small(params);
  SsdModel full;
  EXPECT_EQ(small.EstimateReadTime(AccessKind::kRandom),
            full.EstimateReadTime(AccessKind::kRandom));
  HddParams hp;
  hp.page_bytes = 1024;
  HddModel small_hdd(hp);
  HddModel full_hdd;
  EXPECT_LT(small_hdd.EstimateReadTime(AccessKind::kSequential),
            full_hdd.EstimateReadTime(AccessKind::kSequential));
}

TEST(HddModelTest, TracksMultipleSequentialStreams) {
  // Interleaved scans must both stream (NCQ keeps several streams alive).
  HddModel hdd;
  hdd.ServiceTime(IoRequest{IoOp::kRead, 100, 8});
  hdd.ServiceTime(IoRequest{IoOp::kRead, 5000, 8});
  const Time a = hdd.ServiceTime(IoRequest{IoOp::kRead, 108, 8});
  const Time b = hdd.ServiceTime(IoRequest{IoOp::kRead, 5008, 8});
  // Both continuations stream: transfer-only service time.
  HddParams p;
  EXPECT_EQ(a, 8 * p.transfer_read_per_page);
  EXPECT_EQ(b, 8 * p.transfer_read_per_page);
}

TEST(DeviceTimelineTest, FifoQueueing) {
  SsdModel model;
  DeviceTimeline tl(&model, 8192);
  const Time c1 = tl.Schedule(IoRequest{IoOp::kRead, 1, 1}, 0);
  const Time c2 = tl.Schedule(IoRequest{IoOp::kRead, 999, 1}, 0);
  EXPECT_GT(c2, c1);  // second request waits for the first
}

TEST(DeviceTimelineTest, IdleDeviceStartsImmediately) {
  SsdModel model;
  DeviceTimeline tl(&model, 8192);
  const Time c1 = tl.Schedule(IoRequest{IoOp::kRead, 1, 1}, 0);
  const Time c2 = tl.Schedule(IoRequest{IoOp::kRead, 999, 1}, c1 + Millis(5));
  EXPECT_GT(c2, c1 + Millis(5));
  EXPECT_LT(c2 - (c1 + Millis(5)), Millis(1));
}

TEST(DeviceTimelineTest, QueueLengthTracksPending) {
  SsdModel model;
  DeviceTimeline tl(&model, 8192);
  for (int i = 0; i < 5; ++i) tl.Schedule(IoRequest{IoOp::kRead, 1, 1}, 0);
  EXPECT_EQ(tl.QueueLength(0), 5);
  EXPECT_EQ(tl.QueueLength(Seconds(10)), 0);
}

// A device nobody asks for its queue length (the log device, the disk
// spindles) must not keep an entry per request it ever served: a request
// arriving at `now` forgets those completed by then.
TEST(DeviceTimelineTest, ScheduleForgetsCompletedRequests) {
  SsdModel model;
  DeviceTimeline tl(&model, 8192);
  Time now = 0;
  for (int i = 0; i < 10000; ++i) {
    now = tl.Schedule(IoRequest{IoOp::kWrite, static_cast<uint64_t>(i), 1}, now);
  }
  // Only the last request is still counted, even by a query at time 0.
  EXPECT_EQ(tl.QueueLength(0), 1);
  EXPECT_EQ(tl.QueueLength(now), 0);
}

TEST(DeviceTimelineTest, CountsAndBytes) {
  SsdModel model;
  DeviceTimeline tl(&model, 8192);
  tl.Schedule(IoRequest{IoOp::kRead, 0, 2}, 0);
  tl.Schedule(IoRequest{IoOp::kWrite, 0, 1}, 0);
  EXPECT_EQ(tl.num_requests(IoOp::kRead), 1);
  EXPECT_EQ(tl.num_requests(IoOp::kWrite), 1);
  EXPECT_EQ(tl.bytes(IoOp::kRead), 2 * 8192);
  EXPECT_EQ(tl.bytes(IoOp::kWrite), 8192);
}

TEST(DeviceTimelineTest, TrafficRecording) {
  SsdModel model;
  DeviceTimeline tl(&model, 8192);
  TimeSeries reads(Seconds(1)), writes(Seconds(1));
  tl.AttachTraffic(&reads, &writes);
  tl.Schedule(IoRequest{IoOp::kRead, 0, 4}, Millis(500));
  EXPECT_DOUBLE_EQ(reads.BucketSum(0), 4 * 8192.0);
  EXPECT_DOUBLE_EQ(writes.BucketSum(0), 0.0);
}

TEST(DeviceTimelineTest, ResetClearsState) {
  SsdModel model;
  DeviceTimeline tl(&model, 8192);
  tl.Schedule(IoRequest{IoOp::kRead, 0, 1}, 0);
  tl.Reset();
  EXPECT_EQ(tl.busy_time(), 0);
  EXPECT_EQ(tl.num_requests(IoOp::kRead), 0);
  EXPECT_EQ(tl.QueueLength(0), 0);
}

// The node-based schedule DeviceTimeline replaced (std::map of busy
// intervals, std::multiset of completions), kept as the reference the flat
// vector/heap version must match call for call.
class ReferenceTimeline {
 public:
  explicit ReferenceTimeline(DeviceModel* model) : model_(model) {}

  Time Schedule(const IoRequest& req, Time now, Time* service_start) {
    const Time service = model_->ServiceTime(req);
    Time start = now;
    auto it = busy_.upper_bound(start);
    if (it != busy_.begin()) {
      auto prev = std::prev(it);
      if (prev->second > start) start = prev->second;
    }
    while (it != busy_.end() && it->first < start + service) {
      start = std::max(start, it->second);
      ++it;
    }
    const Time completion = start + service;
    *service_start = start;
    busy_.emplace(start, completion);
    free_at_ = std::max(free_at_, completion);
    busy_time_ += service;
    if (busy_.size() > 2048) {
      auto first = busy_.begin();
      for (size_t i = 0; i < 1024 && std::next(first) != busy_.end(); ++i) {
        auto second = std::next(first);
        const Time s = first->first;
        const Time e = std::max(first->second, second->second);
        busy_.erase(first);
        busy_.erase(second);
        first = busy_.emplace(s, e).first;
        if (std::next(first) == busy_.end()) break;
        first = std::next(first);
      }
    }
    pending_.erase(pending_.begin(), pending_.upper_bound(now));
    pending_.insert(completion);
    return completion;
  }

  int QueueLength(Time now) {
    pending_.erase(pending_.begin(), pending_.upper_bound(now));
    return static_cast<int>(pending_.size());
  }

  Time busy_time() const { return busy_time_; }
  Time free_at() const { return free_at_; }
  size_t intervals() const { return busy_.size(); }

 private:
  DeviceModel* model_;
  std::map<Time, Time> busy_;
  std::multiset<Time> pending_;
  Time free_at_ = 0;
  Time busy_time_ = 0;
};

// Service times drawn from a seeded stream, a fifth of them zero: a
// zero-length booking at an instant where another interval starts is the
// only way two bookings share a start key.
class RandomServiceModel : public DeviceModel {
 public:
  explicit RandomServiceModel(uint64_t seed) : rng_(seed) {}
  Time ServiceTime(const IoRequest&) override {
    return rng_.Bernoulli(0.2) ? 0 : rng_.UniformRange(1, Micros(900));
  }
  Time EstimateReadTime(AccessKind) const override { return Micros(100); }
  void Reset() override {}

 private:
  Rng rng_;
};

// Drives a DeviceTimeline and the reference with one seeded request
// stream (two model instances built alike, since models keep positioning
// state) and requires identical answers after every call. Arrivals mostly
// advance, sometimes jump back (out-of-order `now`), and come in bursts at
// one instant; 12,000 requests keep more than 2048 intervals live, so
// coalescing runs several times. Returns how many bookings found their
// start key taken (the reference's emplace was a no-op).
int ExpectSameSchedule(DeviceModel* flat_model, DeviceModel* ref_model,
                       uint64_t seed) {
  DeviceTimeline flat(flat_model, 8192);
  ReferenceTimeline ref(ref_model);
  Rng rng(seed);
  Time now = 0;
  int coalesced = 0;
  int equal_starts = 0;
  for (int i = 0; i < 12000; ++i) {
    const uint64_t dice = rng.Uniform(100);
    if (dice < 10) {
      now = std::max<Time>(0, now - rng.UniformRange(0, Millis(50)));
    } else if (dice < 70) {
      now += rng.UniformRange(0, Micros(400));
    }  // else: a burst at the same instant
    IoRequest req;
    req.op = rng.Bernoulli(0.5) ? IoOp::kRead : IoOp::kWrite;
    // Short offsets so HDD streams and SSD sequential runs recur.
    req.page_offset = rng.Bernoulli(0.3) ? rng.Uniform(1 << 20) : i % 64;
    req.num_pages = static_cast<uint32_t>(rng.UniformRange(1, 8));
    Time flat_start = -1;
    Time ref_start = -1;
    const size_t before = ref.intervals();
    const Time flat_done = flat.Schedule(req, now, &flat_start);
    const Time ref_done = ref.Schedule(req, now, &ref_start);
    if (ref.intervals() < before) ++coalesced;
    if (ref.intervals() == before) ++equal_starts;
    EXPECT_EQ(flat_done, ref_done) << "request " << i;
    EXPECT_EQ(flat_start, ref_start) << "request " << i;
    const Time probe = rng.Bernoulli(0.2) ? now - Millis(1) : now;
    EXPECT_EQ(flat.QueueLength(probe), ref.QueueLength(probe))
        << "request " << i;
    EXPECT_EQ(flat.busy_time(), ref.busy_time()) << "request " << i;
    EXPECT_EQ(flat.free_at(), ref.free_at()) << "request " << i;
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GE(coalesced, 5);
  return equal_starts;
}

TEST(DeviceTimelineTest, MatchesReferenceScheduleHdd) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    HddModel a, b;
    ExpectSameSchedule(&a, &b, seed);
  }
}

TEST(DeviceTimelineTest, MatchesReferenceScheduleSsd) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SsdModel a, b;
    ExpectSameSchedule(&a, &b, seed);
  }
}

TEST(DeviceTimelineTest, MatchesReferenceScheduleWithEqualStarts) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    RandomServiceModel a(seed * 7), b(seed * 7);
    EXPECT_GT(ExpectSameSchedule(&a, &b, seed), 0);
  }
}

}  // namespace
}  // namespace turbobp

#include "sim/device_model.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace turbobp

// Negative test for tools/analysis/static_check.py, rule `async-io`.
//
// An AsyncIoEngine entry point is called, through the DiskManager's engine
// accessor, while a BufferPool shard latch or an SSD partition latch is
// held. Engine completion callbacks re-enter the frame state machine and
// take those latches on a fresh stack, so Submit/Reap/Drain under
// kBufferPool / kSsdPartition deadlocks (DESIGN.md §12
// completion-context rules). The checker must flag both engine calls;
// ctest asserts a non-zero exit (WILL_FAIL). drain_under_latch.cc covers
// the same rule through a bound engine reference.
//
// This file is never compiled — it is a fixture parsed by the structural
// checker, written against the real type names so lock resolution works.

namespace turbobp {

void BadSubmitUnderShardLatch(Shard& sh, DiskManager* disk_,
                              AsyncIoRequest& req, IoContext& ctx) {
  TrackedLockGuard lock(sh.mu);
  disk_->io_engine().Submit(req, ctx);  // BAD: engine entry under a pool latch
}

void BadDrainUnderPartitionLatch(Partition& part, DiskManager* disk_,
                                 IoContext& ctx) {
  TrackedLockGuard lock(part.mu);
  ctx.Wait(disk_->io_engine().Drain(ctx));  // BAD: reaps under the partition
}

}  // namespace turbobp

// Negative test for tools/analysis/static_check.py, rule `async-io`.
//
// The consumers bind the DiskManager's engine to a local reference and
// call it from there. Draining that engine while an SSD partition latch is
// held deadlocks as soon as a completion callback takes a partition latch
// (DESIGN.md §12 completion-context rules). The checker must flag the
// Drain; ctest asserts a non-zero exit (WILL_FAIL).
//
// This file is never compiled — it is a fixture parsed by the structural
// checker, written against the real type names so lock resolution works.

namespace turbobp {

void BadDrainUnderPartitionLatch(Partition& part, DiskManager* disk_,
                                 IoContext& ctx) {
  AsyncIoEngine& engine = disk_->io_engine();
  TrackedLockGuard lock(part.mu);
  ctx.Wait(engine.Drain(ctx));  // BAD: drain reaps under the partition
}

}  // namespace turbobp

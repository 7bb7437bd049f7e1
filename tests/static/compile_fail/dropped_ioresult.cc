// Negative test for tools/analysis/static_check.py, rule `ioresult`.
//
// Calls an IoResult-returning device entry point as a bare expression
// statement. IoResult is deliberately not [[nodiscard]] (see
// storage_device.h), so the compiler will not catch this — the checker
// must. ctest asserts a non-zero exit.
//
// Never compiled; a fixture parsed by the structural checker.

namespace turbobp {

void BadDroppedWrite(StorageDevice* device_, std::span<const uint8_t> data) {
  device_->Write(0, 1, data, 0);  // BAD: IoResult dropped on the floor
}

void BadDroppedFrameWrite(Partition& part, int32_t rec,
                          std::span<const uint8_t> data, IoContext& ctx) {
  TrackedLockGuard lock(part.mu);
  WriteFrame(part, rec, data, ctx);  // BAD: IoResult dropped on the floor
}

}  // namespace turbobp

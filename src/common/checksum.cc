#include "common/checksum.h"

#include <array>
#include <cstring>

#include "common/checksum_impl.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace turbobp {

namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reflected CRC32C polynomial

std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

#if defined(__x86_64__)
bool CpuHasSse42() {
  // Safe even if a static initializer reaches Crc32c before libgcc has
  // probed the CPU.
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}
#endif

}  // namespace

namespace detail {

uint32_t Crc32cBytewise(const void* data, size_t n, uint32_t seed) {
  static const std::array<uint32_t, 256> kTable = BuildTable();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__)
// Compiled for SSE4.2 on its own, so the build needs no global -msse4.2.
// The crc32 instruction implements the same reflected CRC32C step as the
// table loop, and a little-endian 8-byte word feeds it bytes in memory
// order, so both paths return the same value.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                       size_t n,
                                                       uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t crc = static_cast<uint32_t>(~seed);
  for (; n >= sizeof(uint64_t); n -= sizeof(uint64_t)) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));  // any alignment
    crc = _mm_crc32_u64(crc, word);
    p += sizeof(uint64_t);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; --n) crc32 = _mm_crc32_u8(crc32, *p++);
  return ~crc32;
}
#endif

}  // namespace detail

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
#if defined(__x86_64__)
  // Probed once; the magic static makes the first calls thread-safe.
  static const bool kSse42 = CpuHasSse42();
  if (kSse42) return detail::Crc32cSse42(data, n, seed);
#endif
  return detail::Crc32cBytewise(data, n, seed);
}

}  // namespace turbobp

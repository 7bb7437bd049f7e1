#ifndef TURBOBP_COMMON_CHECKSUM_IMPL_H_
#define TURBOBP_COMMON_CHECKSUM_IMPL_H_

#include <cstddef>
#include <cstdint>

// The implementations behind Crc32c (common/checksum.h), declared so the
// tests can check each one against the others. Everything else calls
// Crc32c, which picks one of these once per process.

namespace turbobp::detail {

// Byte-at-a-time table loop: the portable fallback and the reference.
uint32_t Crc32cBytewise(const void* data, size_t n, uint32_t seed);

#if defined(__x86_64__)
// SSE4.2 crc32 instruction over 8-byte words, then single bytes. Only call
// it where __builtin_cpu_supports("sse4.2") is true.
uint32_t Crc32cSse42(const void* data, size_t n, uint32_t seed);
#endif

}  // namespace turbobp::detail

#endif  // TURBOBP_COMMON_CHECKSUM_IMPL_H_

#ifndef TURBOBP_COMMON_CHECKSUM_H_
#define TURBOBP_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace turbobp {

// CRC32C (Castagnoli): the SSE4.2 crc32 instruction when the CPU has it,
// else a byte-at-a-time table loop; both give the same value. Every page
// carries a checksum over its payload; the buffer manager verifies it on
// each device read, so any stale- or torn-copy bug between the three page
// locations (memory / SSD / disk) surfaces immediately as corruption.
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

}  // namespace turbobp

#endif  // TURBOBP_COMMON_CHECKSUM_H_
